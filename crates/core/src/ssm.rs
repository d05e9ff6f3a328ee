//! Symmetric subgraph matching over the AutoTree (`SSM-AT`, Algorithm 6),
//! plus the two primitives the paper's application studies are built on:
//!
//! * [`symmetric_key`] — a canonical key for a vertex set `S` such that two
//!   sets have equal keys **iff** some automorphism of `(G, π)` maps one
//!   onto the other (the clustering key of Table 7).
//! * [`count_images`] — the exact number of distinct images of `S` under
//!   `Aut(G, π)` (the seed-set counts of Table 6), as a [`BigUint`] because
//!   real counts reach `10^88`.
//! * [`enumerate_images`] — the actual matches (Algorithm 6), with a result
//!   limit since counts are often astronomically large; truncated runs are
//!   marked explicitly in [`SsmMatches::truncated`].
//!
//! Every primitive has a `try_` variant taking a [`Budget`], which meters
//! the recursion (one work unit per tree node or orbit image) and aborts
//! with a typed [`DviclError`] on exhaustion or cancellation. The
//! infallible names wrap the `try_` forms with [`Budget::unlimited`] and
//! panic on invalid query sets, preserving the historical contract.
//!
//! All primitives walk the same recursion: a set is partitioned over a
//! node's children; within a sibling class the per-child *patterns*
//! (recursive keys) may be assigned to any distinct children of the class,
//! because `Aut(g)` restricted to a class is the full wreath product
//! `Aut(child) ≀ S_k` (see `crate::aut`).

use crate::tree::{AutoTree, NodeId, NodeKind};
use dvicl_canon::{try_canonical_form as ir_try_canonical_form, Config};
use dvicl_govern::{Budget, DviclError, Site};
use dvicl_graph::{Coloring, GraphBuilder, V};
use dvicl_group::BigUint;
use rustc_hash::{FxHashMap, FxHashSet};

/// One pattern instance inside a sibling class: canonical key plus the
/// (child position, child node, vertex subset) it came from.
type KeyedInstance<'a> = (Vec<u8>, &'a (u32, NodeId, Vec<V>));

/// Precomputed navigation over an AutoTree: vertex → leaf, child → position
/// in parent. Build once, share across many SSM queries.
pub struct SsmIndex {
    leaf_of: Vec<NodeId>,
    pos_in_parent: Vec<u32>,
}

impl SsmIndex {
    /// Builds the index for `tree`.
    pub fn new(tree: &AutoTree) -> Self {
        let n = tree.pi.n();
        let mut leaf_of = vec![usize::MAX; n];
        let mut pos_in_parent = vec![0u32; tree.len()];
        for node in tree.nodes() {
            for (pos, &c) in node.children().iter().enumerate() {
                // dvicl-lint: allow(narrowing-cast) -- a node has at most n <= V::MAX children
                pos_in_parent[c] = pos as u32;
            }
            if node.children().is_empty() {
                for &v in node.verts() {
                    leaf_of[v as usize] = node.id();
                }
            }
        }
        SsmIndex {
            leaf_of,
            pos_in_parent,
        }
    }

    /// The child of `node` whose subtree contains `v` (`v` must be in the
    /// node's subgraph but `node` must not be `v`'s leaf).
    // dvicl-lint: allow(budget-reachability) -- walks one leaf-to-node path, O(tree depth); callers meter per query vertex
    fn child_under(&self, tree: &AutoTree, node: NodeId, v: V) -> NodeId {
        let mut cur = self.leaf_of[v as usize];
        loop {
            // dvicl-lint: allow(panic-freedom) -- the caller guarantees v lies strictly below node, so the walk hits node before the root
            let parent = tree.node(cur).parent().expect("v lies under node");
            if parent == node {
                return cur;
            }
            cur = parent;
        }
    }

    /// Partitions `set` among the children of `node`; returns
    /// `(child position, child id, subset)` sorted by position.
    fn partition(&self, tree: &AutoTree, node: NodeId, set: &[V]) -> Vec<(u32, NodeId, Vec<V>)> {
        let mut by_child: FxHashMap<NodeId, Vec<V>> = FxHashMap::default();
        for &v in set {
            let c = self.child_under(tree, node, v);
            by_child.entry(c).or_default().push(v);
        }
        let mut out: Vec<(u32, NodeId, Vec<V>)> = by_child
            .into_iter()
            .map(|(c, mut vs)| {
                vs.sort_unstable();
                (self.pos_in_parent[c], c, vs)
            })
            .collect();
        out.sort_unstable();
        out
    }
}

fn validate_set(tree: &AutoTree, set: &[V]) -> Result<Vec<V>, DviclError> {
    if set.is_empty() {
        return Err(DviclError::invalid(
            "SSM queries need a non-empty vertex set",
        ));
    }
    let n = tree.pi.n();
    let mut s: Vec<V> = set.to_vec();
    s.sort_unstable();
    s.dedup();
    if let Some(&v) = s.iter().find(|&&v| (v as usize) >= n) {
        return Err(DviclError::invalid(format!(
            "SSM query vertex {v} out of range for a {n}-vertex graph"
        )));
    }
    Ok(s)
}

// ---------------------------------------------------------------------
// Keys and counts (one recursion computes both).
// ---------------------------------------------------------------------

fn push_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Canonical key of `set` under `Aut(G, π)`: equal keys ⇔ symmetric sets.
///
/// Panics on an empty or out-of-range query set; [`try_symmetric_key`] is
/// the fallible, budget-aware form.
pub fn symmetric_key(tree: &AutoTree, index: &SsmIndex, set: &[V]) -> Vec<u8> {
    try_symmetric_key(tree, index, set, &Budget::unlimited())
        // dvicl-lint: allow(panic-freedom) -- documented panicking wrapper: only an invalid query set can reach the Err arm, as stated in the doc comment
        .unwrap_or_else(|e| panic!("SSM query failed: {e}"))
}

/// Budgeted [`symmetric_key`]: rejects invalid query sets as
/// [`DviclError::InvalidInput`] and meters the recursion against `budget`.
pub fn try_symmetric_key(
    tree: &AutoTree,
    index: &SsmIndex,
    set: &[V],
    budget: &Budget,
) -> Result<Vec<u8>, DviclError> {
    let set = validate_set(tree, set)?;
    Ok(analyze(tree, index, tree.root(), &set, budget, &mut GraphBuilder::new(0))?.0)
}

/// Exact number of distinct images of `set` under `Aut(G, π)` (including
/// `set` itself).
///
/// Panics on an empty or out-of-range query set; [`try_count_images`] is
/// the fallible, budget-aware form.
///
/// ```
/// use dvicl_graph::{named, Coloring};
/// use dvicl_core::{build_autotree, DviclOptions};
/// use dvicl_core::ssm::{count_images, SsmIndex};
/// // A pair of star leaves has C(5, 2) = 10 symmetric images.
/// let g = named::star(5);
/// let tree = build_autotree(&g, &Coloring::unit(6), &DviclOptions::default());
/// let index = SsmIndex::new(&tree);
/// assert_eq!(count_images(&tree, &index, &[1, 2]).to_u64(), Some(10));
/// ```
pub fn count_images(tree: &AutoTree, index: &SsmIndex, set: &[V]) -> BigUint {
    try_count_images(tree, index, set, &Budget::unlimited())
        // dvicl-lint: allow(panic-freedom) -- convenience wrapper: with an unlimited budget only an invalid query set can reach the Err arm
        .unwrap_or_else(|e| panic!("SSM query failed: {e}"))
}

/// Budgeted [`count_images`].
pub fn try_count_images(
    tree: &AutoTree,
    index: &SsmIndex,
    set: &[V],
    budget: &Budget,
) -> Result<BigUint, DviclError> {
    let _span = dvicl_obs::span(dvicl_obs::Phase::CoreSsm);
    let set = validate_set(tree, set)?;
    Ok(analyze(tree, index, tree.root(), &set, budget, &mut GraphBuilder::new(0))?.1)
}

/// True iff some automorphism maps `a` onto `b` (as sets).
///
/// Panics on an empty or out-of-range query set; [`try_same_symmetry`] is
/// the fallible, budget-aware form.
pub fn same_symmetry(tree: &AutoTree, index: &SsmIndex, a: &[V], b: &[V]) -> bool {
    try_same_symmetry(tree, index, a, b, &Budget::unlimited())
        // dvicl-lint: allow(panic-freedom) -- documented panicking wrapper: only an invalid query set can reach the Err arm, as stated in the doc comment
        .unwrap_or_else(|e| panic!("SSM query failed: {e}"))
}

/// Budgeted [`same_symmetry`].
pub fn try_same_symmetry(
    tree: &AutoTree,
    index: &SsmIndex,
    a: &[V],
    b: &[V],
    budget: &Budget,
) -> Result<bool, DviclError> {
    let a = validate_set(tree, a)?;
    let b = validate_set(tree, b)?;
    if a.len() != b.len() {
        return Ok(false);
    }
    if a == b {
        return Ok(true);
    }
    let mut builder = GraphBuilder::new(0);
    Ok(analyze(tree, index, tree.root(), &a, budget, &mut builder)?.0
        == analyze(tree, index, tree.root(), &b, budget, &mut builder)?.0)
}

/// Recursive analysis: (canonical pattern key, image count) of `set` within
/// the subgraph of `node`. `set` is sorted and entirely inside the node.
/// Spends one work unit per visited tree node.
///
/// `builder` is one query-wide [`GraphBuilder`]: every non-singleton leaf
/// the query touches rebuilds its local graph through the same buffers.
fn analyze(
    tree: &AutoTree,
    index: &SsmIndex,
    node: NodeId,
    set: &[V],
    gov: &Budget,
    builder: &mut GraphBuilder,
) -> Result<(Vec<u8>, BigUint), DviclError> {
    dvicl_obs::bump(dvicl_obs::Counter::SsmStates);
    dvicl_govern::fault::checkpoint(Site::CoreSsm)?;
    gov.spend(1)?;
    let n = tree.node(node);
    match n.kind() {
        NodeKind::SingletonLeaf => Ok((vec![0x01], BigUint::one())),
        NodeKind::NonSingletonLeaf => analyze_leaf(tree, node, set, gov, builder),
        NodeKind::Internal => {
            let parts = index.partition(tree, node, set);
            let mut key = Vec::new();
            let mut count = BigUint::one();
            // Per-child analysis, then grouped per sibling class.
            let analyzed: Vec<(u32, Vec<u8>, BigUint)> = parts
                .into_iter()
                .map(|(pos, child, subset)| {
                    analyze(tree, index, child, &subset, gov, builder).map(|(k, c)| (pos, k, c))
                })
                .collect::<Result<_, _>>()?;
            for (class_idx, &(start, end)) in n.sibling_classes().iter().enumerate() {
                let in_class: Vec<&(u32, Vec<u8>, BigUint)> = analyzed
                    .iter()
                    .filter(|&&(pos, _, _)| start <= pos && pos < end)
                    .collect();
                if in_class.is_empty() {
                    continue;
                }
                let c = (end - start) as u64; // class size
                let t = in_class.len() as u64; // occupied children
                // Sort the pattern keys; runs of equal keys are
                // interchangeable assignments.
                let mut keys: Vec<&Vec<u8>> = in_class.iter().map(|x| &x.1).collect();
                keys.sort();
                // Key contribution.
                // dvicl-lint: allow(narrowing-cast) -- class_idx counts sibling classes, at most n <= V::MAX
                push_u32(&mut key, 0xA5A5_0000 | class_idx as u32);
                // dvicl-lint: allow(narrowing-cast) -- t <= the class size c <= n <= V::MAX
                push_u32(&mut key, t as u32);
                for k in &keys {
                    // dvicl-lint: allow(narrowing-cast) -- a child key holds O(n) u32 words, far below u32::MAX bytes
                    push_u32(&mut key, k.len() as u32);
                    key.extend_from_slice(k);
                }
                // Count contribution: assignments × within-child images.
                // #assignments = C(c, k_1)·C(c-k_1, k_2)·…, over runs k_i.
                let mut remaining = c;
                let mut i = 0;
                while i < keys.len() {
                    let mut j = i;
                    while j < keys.len() && keys[j] == keys[i] {
                        j += 1;
                    }
                    let run = (j - i) as u64;
                    count *= &BigUint::binomial(remaining, run);
                    remaining -= run;
                    i = j;
                }
                let _ = remaining;
                for x in &in_class {
                    count *= &x.2;
                }
                let _ = t;
            }
            Ok((key, count))
        }
    }
}

/// Pattern analysis inside a non-singleton leaf: canonicalize the leaf's
/// colored graph with set-membership folded into the colors; count the
/// orbit of the set under the leaf's automorphism group by BFS.
fn analyze_leaf(
    tree: &AutoTree,
    node: NodeId,
    set: &[V],
    gov: &Budget,
    builder: &mut GraphBuilder,
) -> Result<(Vec<u8>, BigUint), DviclError> {
    let n = tree.node(node);
    // Local graph + colors with the set distinguished.
    let verts = n.verts();
    let in_set: Vec<bool> = verts
        .iter()
        .map(|v| set.binary_search(v).is_ok())
        .collect();
    let vmap: FxHashMap<V, u32> = verts
        .iter()
        .enumerate()
        // dvicl-lint: allow(narrowing-cast) -- i indexes the leaf's vertices, at most n <= V::MAX
        .map(|(i, &v)| (v, i as u32))
        .collect();
    // Recover the leaf's induced edges from the original graph structure
    // stored in the tree: the leaf's certificate has them, relabeled; it is
    // cheaper to rebuild from labels. `form.edges` are (γ(u), γ(v)); invert
    // the labels to get local endpoints.
    let mut label_to_local: FxHashMap<V, u32> = FxHashMap::default();
    for (i, &l) in n.labels().iter().enumerate() {
        // dvicl-lint: allow(narrowing-cast) -- i indexes the leaf's labels, at most n <= V::MAX
        label_to_local.insert(l, i as u32);
    }
    builder.reset(verts.len());
    for &(la, lb) in n.form().edges {
        builder.add_edge(label_to_local[&la], label_to_local[&lb]);
    }
    let g = builder.build_reusing();
    // Colors: (global color, in-set flag) — from_labels orders cells by
    // value, so in-set halves follow out-set halves deterministically.
    let labels: Vec<V> = verts
        .iter()
        .enumerate()
        .map(|(i, &v)| tree.pi.color_of(v) << 1 | in_set[i] as V)
        .collect();
    let pi = Coloring::from_labels(&labels);
    let res = ir_try_canonical_form(&g, &pi, &Config::bliss_like(), gov)?;
    let mut key = vec![0x5A];
    for &(c, m) in &res.form.colors {
        push_u32(&mut key, c);
        push_u32(&mut key, m);
    }
    for &(a, b) in &res.form.edges {
        push_u32(&mut key, a);
        push_u32(&mut key, b);
    }
    // Orbit of the set under the leaf group (as local index sets).
    let local_set: Vec<u32> = set.iter().map(|v| vmap[v]).collect();
    let gens: Vec<FxHashMap<u32, u32>> = n
        .leaf_generators()
        .map(|sparse| {
            sparse
                .iter()
                .map(|&(a, b)| (vmap[&a], vmap[&b]))
                .collect()
        })
        .collect();
    let count = orbit_of_set(&local_set, &gens, usize::MAX, gov)?.len();
    Ok((key, BigUint::from_u64(count as u64)))
}

/// BFS over set images under sparse generators, as sorted sets in
/// discovery order. The search stops once `cap` images are found and
/// returns the first `cap` images of the uncapped run (`usize::MAX` =
/// the whole orbit). Spends one work unit per explored image.
fn orbit_of_set(
    start: &[u32],
    gens: &[FxHashMap<u32, u32>],
    cap: usize,
    gov: &Budget,
) -> Result<Vec<Vec<u32>>, DviclError> {
    let mut start = start.to_vec();
    start.sort_unstable();
    let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
    seen.insert(start.clone());
    let mut queue = vec![start];
    let mut head = 0;
    while head < queue.len() && queue.len() < cap {
        dvicl_obs::bump(dvicl_obs::Counter::SsmStates);
        gov.spend(1)?;
        let cur = queue[head].clone();
        head += 1;
        for gen in gens {
            let mut img: Vec<u32> = cur
                .iter()
                .map(|v| gen.get(v).copied().unwrap_or(*v))
                .collect();
            img.sort_unstable();
            if seen.insert(img.clone()) {
                queue.push(img);
            }
        }
    }
    queue.truncate(cap);
    Ok(queue)
}

// ---------------------------------------------------------------------
// Enumeration (SSM-AT, Algorithm 6).
// ---------------------------------------------------------------------

/// Result of an [`enumerate_images`] run.
#[derive(Clone, Debug)]
pub struct SsmMatches {
    /// Distinct images found (each sorted ascending); includes the query.
    pub matches: Vec<Vec<V>>,
    /// True iff the result limit stopped the enumeration before every
    /// image was produced. The matches returned are still genuine images;
    /// the set is just not exhaustive.
    pub truncated: bool,
}

/// Enumerates the images of `set` under `Aut(G, π)` — the symmetric
/// subgraphs of Algorithm 6 — up to `limit` results.
///
/// Panics on an empty or out-of-range query set; [`try_enumerate_images`]
/// is the fallible, budget-aware form.
pub fn enumerate_images(
    tree: &AutoTree,
    index: &SsmIndex,
    set: &[V],
    limit: usize,
) -> SsmMatches {
    try_enumerate_images(tree, index, set, limit, &Budget::unlimited())
        // dvicl-lint: allow(panic-freedom) -- documented panicking wrapper: only an invalid query set can reach the Err arm, as stated in the doc comment
        .unwrap_or_else(|e| panic!("SSM query failed: {e}"))
}

/// Budgeted [`enumerate_images`]. The `limit` caps how many matches are
/// returned (truncation is reported in the result, not as an error); the
/// [`Budget`] meters the traversal itself and aborts with a typed error on
/// exhaustion or cancellation.
pub fn try_enumerate_images(
    tree: &AutoTree,
    index: &SsmIndex,
    set: &[V],
    limit: usize,
    budget: &Budget,
) -> Result<SsmMatches, DviclError> {
    let _span = dvicl_obs::span(dvicl_obs::Phase::CoreSsm);
    let set = validate_set(tree, set)?;
    let mut builder = GraphBuilder::new(0);
    let mut slots = limit;
    let matches = enum_at(tree, index, tree.root(), &set, &mut slots, budget, &mut builder)?;
    // The run is truncated iff the true image count exceeds what was
    // returned.
    let truncated = match analyze(tree, index, tree.root(), &set, budget, &mut builder)?
        .1
        .to_u64()
    {
        Some(c) => c as usize != matches.len(),
        None => true,
    };
    Ok(SsmMatches { matches, truncated })
}

fn enum_at(
    tree: &AutoTree,
    index: &SsmIndex,
    node: NodeId,
    set: &[V],
    slots: &mut usize,
    gov: &Budget,
    builder: &mut GraphBuilder,
) -> Result<Vec<Vec<V>>, DviclError> {
    dvicl_obs::bump(dvicl_obs::Counter::SsmStates);
    dvicl_govern::fault::checkpoint(Site::CoreSsm)?;
    gov.spend(1)?;
    if *slots == 0 {
        return Ok(Vec::new());
    }
    let n = tree.node(node);
    match n.kind() {
        NodeKind::SingletonLeaf => {
            *slots = slots.saturating_sub(1);
            Ok(vec![set.to_vec()])
        }
        NodeKind::NonSingletonLeaf => {
            let vmap: FxHashMap<V, u32> = n
                .verts()
                .iter()
                .enumerate()
                // dvicl-lint: allow(narrowing-cast) -- i indexes the leaf's vertices, at most n <= V::MAX
                .map(|(i, &v)| (v, i as u32))
                .collect();
            let local: Vec<u32> = set.iter().map(|v| vmap[v]).collect();
            let gens: Vec<FxHashMap<u32, u32>> = n
                .leaf_generators()
                .map(|s| s.iter().map(|&(a, b)| (vmap[&a], vmap[&b])).collect())
                .collect();
            let orbit = orbit_of_set(&local, &gens, *slots, gov)?;
            let out: Vec<Vec<V>> = orbit
                .into_iter()
                .map(|s| {
                    let mut g: Vec<V> = s.iter().map(|&i| n.verts()[i as usize]).collect();
                    g.sort_unstable();
                    g
                })
                .collect();
            *slots = slots.saturating_sub(out.len());
            Ok(out)
        }
        NodeKind::Internal => {
            let parts = index.partition(tree, node, set);
            // Per class: the list of vertex-set options the class can
            // contribute (one per combined assignment + image choice).
            let mut per_class_options: Vec<Vec<Vec<V>>> = Vec::new();
            for &(start, end) in n.sibling_classes() {
                let instances: Vec<&(u32, NodeId, Vec<V>)> = parts
                    .iter()
                    .filter(|&&(pos, _, _)| start <= pos && pos < end)
                    .collect();
                if instances.is_empty() {
                    continue;
                }
                // Images of each instance inside its own child, then
                // transferred to every child of the class.
                // Group instances by key to avoid duplicate assignments.
                let mut keyed: Vec<KeyedInstance> = Vec::with_capacity(instances.len());
                for inst in &instances {
                    keyed.push((analyze(tree, index, inst.1, &inst.2, gov, builder)?.0, *inst));
                }
                keyed.sort_by(|a, b| a.0.cmp(&b.0));
                // For each run of equal keys, enumerate combinations of
                // target children; accumulate class-level option lists.
                let class_children: Vec<NodeId> =
                    n.children()[start as usize..end as usize].to_vec();
                let class_options = assign_and_enumerate(
                    tree,
                    index,
                    &keyed,
                    &class_children,
                    slots,
                    gov,
                    builder,
                )?;
                per_class_options.push(class_options);
            }
            // Cartesian product across classes.
            let mut acc: Vec<Vec<V>> = vec![Vec::new()];
            for options in per_class_options {
                let mut next = Vec::new();
                'outer: for base in &acc {
                    for opt in &options {
                        let mut merged = base.clone();
                        merged.extend_from_slice(opt);
                        next.push(merged);
                        if next.len() >= *slots {
                            break 'outer;
                        }
                    }
                }
                acc = next;
            }
            for s in &mut acc {
                s.sort_unstable();
            }
            *slots = slots.saturating_sub(acc.len());
            Ok(acc)
        }
    }
}

/// Enumerates, for one sibling class, every way to (a) assign the pattern
/// instances (grouped into runs of equal keys) to distinct children of the
/// class and (b) pick a concrete image inside each chosen child. Returns
/// the flattened vertex sets (one per combined choice).
fn assign_and_enumerate(
    tree: &AutoTree,
    index: &SsmIndex,
    keyed: &[KeyedInstance],
    class_children: &[NodeId],
    slots: &mut usize,
    gov: &Budget,
    builder: &mut GraphBuilder,
) -> Result<Vec<Vec<V>>, DviclError> {
    // Runs of equal keys.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < keyed.len() {
        let mut j = i;
        while j < keyed.len() && keyed[j].0 == keyed[i].0 {
            j += 1;
        }
        runs.push((i, j));
        i = j;
    }
    // For each run, the representative instance's images inside its home
    // child, then transfer maps to each class child (computed lazily).
    let mut results: Vec<Vec<V>> = Vec::new();
    let mut chosen: Vec<(usize, usize)> = Vec::new(); // (run idx, child slot)
    assign_rec(
        tree,
        index,
        keyed,
        &runs,
        0,
        class_children,
        &mut vec![false; class_children.len()],
        &mut chosen,
        &mut results,
        slots,
        gov,
        builder,
    )?;
    Ok(results)
}

#[allow(clippy::too_many_arguments)]
fn assign_rec(
    tree: &AutoTree,
    index: &SsmIndex,
    keyed: &[KeyedInstance],
    runs: &[(usize, usize)],
    run_idx: usize,
    class_children: &[NodeId],
    used: &mut Vec<bool>,
    chosen: &mut Vec<(usize, usize)>,
    results: &mut Vec<Vec<V>>,
    slots: &mut usize,
    gov: &Budget,
    builder: &mut GraphBuilder,
) -> Result<(), DviclError> {
    dvicl_obs::bump(dvicl_obs::Counter::SsmStates);
    gov.spend(1)?;
    if results.len() >= *slots {
        return Ok(());
    }
    if run_idx == runs.len() {
        // All pattern instances placed: enumerate concrete images per
        // placement (cartesian product over placements).
        let mut acc: Vec<Vec<V>> = vec![Vec::new()];
        for &(ri, slot) in chosen.iter() {
            let (start, _) = runs[ri];
            let (_, inst) = &keyed[start];
            let home = inst.1;
            let target = class_children[slot];
            let mut local_slots = *slots;
            let home_images = enum_at(tree, index, home, &inst.2, &mut local_slots, gov, builder)?;
            // Transfer each image to the target child.
            let images: Vec<Vec<V>> = if home == target {
                home_images
            } else {
                let iso: FxHashMap<V, V> = tree
                    .sibling_isomorphism(home, target)
                    .into_iter()
                    .collect();
                home_images
                    .into_iter()
                    .map(|img| {
                        let mut t: Vec<V> = img.iter().map(|v| iso[v]).collect();
                        t.sort_unstable();
                        t
                    })
                    .collect()
            };
            let mut next = Vec::new();
            for base in &acc {
                for img in &images {
                    let mut merged = base.clone();
                    merged.extend_from_slice(img);
                    next.push(merged);
                    if next.len() >= *slots {
                        break;
                    }
                }
                if next.len() >= *slots {
                    break;
                }
            }
            acc = next;
        }
        results.extend(acc);
        return Ok(());
    }
    // Place every instance of this run into distinct unused child slots.
    let (start, end) = runs[run_idx];
    let count = end - start;
    // Choose `count` unused slots (combinations, ascending, to avoid
    // duplicate unordered assignments of equal-key instances).
    // dvicl-lint: allow(budget-reachability) -- enumerates C(slots, count) combinations; the caller spends budget per assignment it consumes
    fn combos(
        used: &mut Vec<bool>,
        from: usize,
        remaining: usize,
        picked: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if remaining == 0 {
            out.push(picked.clone());
            return;
        }
        for s in from..used.len() {
            if used[s] {
                continue;
            }
            used[s] = true;
            picked.push(s);
            combos(used, s + 1, remaining - 1, picked, out);
            picked.pop();
            used[s] = false;
        }
    }
    let mut options = Vec::new();
    combos(used, 0, count, &mut Vec::new(), &mut options);
    for picked in options {
        for (k, &s) in picked.iter().enumerate() {
            used[s] = true;
            chosen.push((run_idx, s));
            let _ = k;
        }
        assign_rec(
            tree,
            index,
            keyed,
            runs,
            run_idx + 1,
            class_children,
            used,
            chosen,
            results,
            slots,
            gov,
            builder,
        )?;
        for &s in &picked {
            used[s] = false;
            chosen.pop();
        }
        if results.len() >= *slots {
            return Ok(());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_autotree, DviclOptions};
    use dvicl_graph::{named, Coloring, Graph};
    use dvicl_group::brute;

    fn setup(g: &Graph) -> (AutoTree, SsmIndex) {
        let t = build_autotree(g, &Coloring::unit(g.n()), &DviclOptions::default());
        let i = SsmIndex::new(&t);
        (t, i)
    }

    /// Ground truth: distinct images of `set` under brute-force Aut(G).
    fn brute_images(g: &Graph, set: &[V]) -> Vec<Vec<V>> {
        let pi = Coloring::unit(g.n());
        let mut out: FxHashSet<Vec<V>> = FxHashSet::default();
        for gamma in brute::automorphisms(g, &pi) {
            let mut img: Vec<V> = set.iter().map(|&v| gamma.apply(v)).collect();
            img.sort_unstable();
            out.insert(img);
        }
        let mut v: Vec<Vec<V>> = out.into_iter().collect();
        v.sort();
        v
    }

    #[test]
    fn counts_match_brute_force() {
        let cases: Vec<(Graph, Vec<V>)> = vec![
            (named::fig1_example(), vec![4]),          // orbit {4,5,6}: 3
            (named::fig1_example(), vec![0, 4]),       // 4 × 3 = 12
            (named::fig1_example(), vec![4, 5]),       // pairs in triangle: 3
            (named::fig1_example(), vec![0, 1]),       // cycle edges: 4
            (named::fig1_example(), vec![0, 2]),       // cycle diagonal: 2
            (named::star(5), vec![1, 2]),              // C(5,2) = 10
            (named::rary_tree(2, 2), vec![3]),         // 4 grandchildren
            (named::rary_tree(2, 2), vec![3, 4]),      // sibling pairs: 2
            (named::rary_tree(2, 2), vec![3, 5]),      // cross pairs: 4
            (named::petersen(), vec![0, 1]),           // edges: 15
            (named::petersen(), vec![0, 2]),           // non-edges: 30
            (named::hypercube(3), vec![0, 3, 5, 6]),   // one tetrahedral class: 2
        ];
        for (g, set) in cases {
            let (t, i) = setup(&g);
            let expected = brute_images(&g, &set).len() as u64;
            assert_eq!(
                count_images(&t, &i, &set).to_u64(),
                Some(expected),
                "count mismatch for {g:?} set {set:?}"
            );
        }
    }

    #[test]
    fn enumeration_matches_brute_force() {
        let cases: Vec<(Graph, Vec<V>)> = vec![
            (named::fig1_example(), vec![4]),
            (named::fig1_example(), vec![0, 4]),
            (named::fig1_example(), vec![0, 1, 4]),
            (named::star(5), vec![1, 2]),
            (named::rary_tree(2, 2), vec![3, 5]),
            (named::petersen(), vec![0, 1, 2]),
        ];
        for (g, set) in cases {
            let (t, i) = setup(&g);
            let mut truth = brute_images(&g, &set);
            let res = enumerate_images(&t, &i, &set, 10_000);
            assert!(!res.truncated, "{g:?} {set:?} truncated");
            let mut got = res.matches.clone();
            got.sort();
            got.dedup();
            truth.sort();
            assert_eq!(got, truth, "enumeration mismatch for {g:?} set {set:?}");
        }
    }

    #[test]
    fn keys_classify_symmetry_like_brute_force() {
        // All 2-subsets of fig1: keys equal iff brute-force symmetric.
        let g = named::fig1_example();
        let (t, i) = setup(&g);
        let pi = Coloring::unit(8);
        let autos = brute::automorphisms(&g, &pi);
        let sets: Vec<Vec<V>> = (0..8)
            .flat_map(|a| ((a + 1)..8).map(move |b| vec![a as V, b as V]))
            .collect();
        for s1 in &sets {
            for s2 in &sets {
                let truly = autos.iter().any(|gamma| {
                    let mut img: Vec<V> = s1.iter().map(|&v| gamma.apply(v)).collect();
                    img.sort_unstable();
                    img == *s2
                });
                let by_key = same_symmetry(&t, &i, s1, s2);
                assert_eq!(truly, by_key, "key disagreement on {s1:?} vs {s2:?}");
            }
        }
    }

    #[test]
    fn example_6_11_shape() {
        // The paper's Example 6.11 runs on the Fig. 3 graph: a query path
        // of (pendant, clique-member, other-clique-member) has 6 images
        // inside one wing-triple and 6 more... our fig3 analog: query the
        // 2-path (pendant p, clique member c) plus one other clique member.
        // We verify the SSM result against brute force instead of the
        // paper's absolute listing (our fig3 differs in the second level).
        let g = named::fig3_example();
        let (t, i) = setup(&g);
        let query: Vec<V> = vec![3, 2, 4]; // pendant 3 - clique 2 - clique 4
        let truth = brute_images(&g, &query);
        let res = enumerate_images(&t, &i, &query, 1000);
        assert!(!res.truncated);
        let mut got = res.matches.clone();
        got.sort();
        assert_eq!(got, truth);
        assert_eq!(
            count_images(&t, &i, &query).to_u64(),
            Some(truth.len() as u64)
        );
    }

    #[test]
    fn result_limit_truncates() {
        let g = named::star(8);
        let (t, i) = setup(&g);
        // C(8,3) = 56 images of a 3-leaf subset.
        let res = enumerate_images(&t, &i, &[1, 2, 3], 10);
        assert!(res.truncated);
        let full = enumerate_images(&t, &i, &[1, 2, 3], 100);
        assert!(!full.truncated);
        assert_eq!(full.matches.len(), 56);
        assert_eq!(res.matches, full.matches[..10]);
        assert_eq!(count_images(&t, &i, &[1, 2, 3]).to_u64(), Some(56));
    }

    #[test]
    fn result_limit_returns_a_prefix_of_the_full_listing() {
        // Petersen is one non-singleton leaf; an edge has 15 images.
        let (t, i) = setup(&named::petersen());
        let full = enumerate_images(&t, &i, &[0, 1], usize::MAX);
        assert_eq!(full.matches.len(), 15);
        assert!(!full.truncated);
        for limit in [0, 1, 3, 15, 16] {
            let res = enumerate_images(&t, &i, &[0, 1], limit);
            assert_eq!(res.matches, full.matches[..limit.min(15)], "limit {limit}");
            assert_eq!(res.truncated, limit < 15, "limit {limit}");
        }
    }

    #[test]
    fn whole_vertex_set_is_rigid() {
        let g = named::fig1_example();
        let (t, i) = setup(&g);
        let all: Vec<V> = (0..8).collect();
        assert_eq!(count_images(&t, &i, &all).to_u64(), Some(1));
    }

    #[test]
    fn asymmetric_graph_all_counts_one() {
        let g = named::frucht();
        let (t, i) = setup(&g);
        for v in 0..12 {
            assert_eq!(count_images(&t, &i, &[v]).to_u64(), Some(1));
        }
        assert_eq!(count_images(&t, &i, &[0, 5, 9]).to_u64(), Some(1));
    }

    #[test]
    fn large_counts_use_bigint() {
        // A star with 70 leaves: C(70, 35) ≈ 1.1E20 > u64 for the orbit of
        // a 35-leaf subset.
        let g = named::star(70);
        let (t, i) = setup(&g);
        let set: Vec<V> = (1..=35).collect();
        let c = count_images(&t, &i, &set);
        assert_eq!(c.to_decimal(), BigUint::binomial(70, 35).to_decimal());
        assert!(c.to_u64().is_none());
    }

    #[test]
    fn invalid_queries_are_typed_errors() {
        let g = named::star(5);
        let (t, i) = setup(&g);
        let b = Budget::unlimited();
        assert!(matches!(
            try_count_images(&t, &i, &[], &b),
            Err(DviclError::InvalidInput(_))
        ));
        assert!(matches!(
            try_symmetric_key(&t, &i, &[99], &b),
            Err(DviclError::InvalidInput(_))
        ));
    }

    #[test]
    fn work_budget_aborts_enumeration() {
        use dvicl_govern::Resource;
        let g = named::star(8);
        let (t, i) = setup(&g);
        let tight = Budget::with_max_work(2);
        let err = try_enumerate_images(&t, &i, &[1, 2, 3], 1000, &tight).unwrap_err();
        assert!(matches!(
            err,
            DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                ..
            }
        ));
    }
}
