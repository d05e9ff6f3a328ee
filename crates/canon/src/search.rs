//! The backtrack search over the individualization-refinement tree.

use crate::tree::{NodeRecord, SearchTree};
use dvicl_govern::{Budget, DviclError, Site};
use dvicl_obs::{self as obs, Counter, Phase};
use dvicl_graph::{CanonForm, Coloring, Graph, Perm, V};
use dvicl_group::Orbits;
use dvicl_refine::Refiner;
use std::cmp::Ordering;

/// Target cell selector `T` (Section 4): which non-singleton cell of the
/// node's coloring to individualize. All choices are functions of cell
/// *positions and sizes* only, hence isomorphism-invariant as required by
/// property (iii) of `T`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetCell {
    /// The first (lowest-position) non-singleton cell — the choice of \[18\],
    /// used by bliss and in the paper's Fig. 1(b).
    FirstNonSingleton,
    /// The first *smallest* non-singleton cell — nauty's classic choice
    /// \[26\].
    SmallestFirst,
    /// The first *largest* non-singleton cell — stands in for traces'
    /// preference for large cells in this reproduction.
    LargestFirst,
    /// The first most-constrained non-singleton cell: the one adjacent
    /// to the largest number of *distinct* cells — a DSATUR-style
    /// saturation choice. Individualizing inside a highly-saturated
    /// cell tends to split the most cells in the next refinement. In an
    /// equitable coloring every member of a cell sees the same multiset
    /// of neighbor colors, so one member's neighborhood determines the
    /// whole cell's saturation and the choice stays
    /// isomorphism-invariant.
    MostConstrained,
}

impl TargetCell {
    /// Applies the selector to an equitable coloring of `g`; `None` if
    /// discrete.
    pub fn select<'a>(&self, g: &Graph, pi: &'a Coloring) -> Option<&'a [V]> {
        let non_singleton = pi.cells().iter().filter(|c| c.len() > 1);
        match self {
            TargetCell::FirstNonSingleton => non_singleton.map(|c| c.as_slice()).next(),
            TargetCell::SmallestFirst => non_singleton
                .min_by_key(|c| c.len())
                .map(|c| c.as_slice()),
            TargetCell::LargestFirst => non_singleton
                .max_by_key(|c| c.len())
                .map(|c| c.as_slice()),
            TargetCell::MostConstrained => {
                let mut best: Option<(&'a [V], usize)> = None;
                let mut cols: Vec<u32> = Vec::new();
                for c in non_singleton {
                    cols.clear();
                    cols.extend(g.neighbors(c[0]).iter().map(|&w| pi.color_of(w)));
                    cols.sort_unstable();
                    cols.dedup();
                    // Strict > keeps the first cell on ties, matching the
                    // position-order tiebreak of the other selectors.
                    if best.is_none_or(|(_, sat)| cols.len() > sat) {
                        best = Some((c.as_slice(), cols.len()));
                    }
                }
                best.map(|(c, _)| c)
            }
        }
    }

    /// Parses a `--target-cell` argument value.
    pub fn parse(s: &str) -> Option<TargetCell> {
        match s {
            "first" => Some(TargetCell::FirstNonSingleton),
            "smallest" => Some(TargetCell::SmallestFirst),
            "largest" => Some(TargetCell::LargestFirst),
            "most-constrained" => Some(TargetCell::MostConstrained),
            _ => None,
        }
    }

    /// The stable flag-value name
    /// (`first`/`smallest`/`largest`/`most-constrained`).
    pub fn name(self) -> &'static str {
        match self {
            TargetCell::FirstNonSingleton => "first",
            TargetCell::SmallestFirst => "smallest",
            TargetCell::LargestFirst => "largest",
            TargetCell::MostConstrained => "most-constrained",
        }
    }
}

/// Engine configuration: the knobs the paper attributes to the three
/// baseline tools.
///
/// `PartialEq` exists so state keyed to a configuration (the
/// `core::Session` CombineCL memo) can detect a configuration change
/// and invalidate itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Config {
    /// Target cell selector.
    pub target_cell: TargetCell,
    /// Use refinement traces as the node invariant `φ` (pruning `P_A`,
    /// `P_B`). Without it only automorphism pruning `P_C` applies.
    pub use_invariant: bool,
    /// Record the search tree (for figures/examples; small graphs only).
    pub record_tree: bool,
    /// Search for the automorphism group only (the saucy mode): skip the
    /// canonical-candidate bookkeeping and prune every subtree that cannot
    /// map onto the reference path. The resulting `CanonResult::form` is
    /// the *reference* (first-leaf) certificate, which is NOT canonical.
    pub group_only: bool,
}

impl Config {
    /// The bliss-like configuration (first non-singleton cell, invariants
    /// on) — the default, and the labeler `DviCL+b` delegates to.
    pub fn bliss_like() -> Self {
        Config {
            target_cell: TargetCell::FirstNonSingleton,
            use_invariant: true,
            record_tree: false,
            group_only: false,
        }
    }

    /// The nauty-like configuration (smallest cell first, weaker pruning:
    /// no trace invariant).
    pub fn nauty_like() -> Self {
        Config {
            target_cell: TargetCell::SmallestFirst,
            use_invariant: false,
            record_tree: false,
            group_only: false,
        }
    }

    /// The traces-like configuration (largest cell first, invariants on).
    pub fn traces_like() -> Self {
        Config {
            target_cell: TargetCell::LargestFirst,
            use_invariant: true,
            record_tree: false,
            group_only: false,
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::bliss_like()
    }
}

/// Search statistics (tree size, pruning effectiveness).
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Tree nodes visited.
    pub nodes: u64,
    /// Leaves reached.
    pub leaves: u64,
    /// Subtrees pruned by the node invariant (`P_A`/`P_B`).
    pub pruned_invariant: u64,
    /// Branches skipped by discovered automorphisms (`P_C`).
    pub pruned_orbit: u64,
    /// Automorphism generators recorded.
    pub generators_found: u64,
    /// Maximum depth reached.
    pub max_depth: u32,
}

/// The output of a canonical labeling run.
pub struct CanonResult {
    /// The canonical labeling `γ*`: vertex → canonical position.
    pub labeling: Perm,
    /// The certificate `C(G, π) = (G, π)^{γ*}`.
    pub form: CanonForm,
    /// Generators of `Aut(G, π)` discovered during the search. Together
    /// they generate the full automorphism group (every automorphism maps
    /// the first leaf's path to some unpruned leaf with an equal
    /// certificate).
    pub generators: Vec<Perm>,
    /// Orbit partition of the generated group.
    pub orbits: Orbits,
    /// Statistics.
    pub stats: SearchStats,
    /// The recorded search tree, if `Config::record_tree` was set.
    pub tree: Option<SearchTree>,
}

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    let mut z = h ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Quotient-graph invariant: a commutative hash over the multiset of
/// color-pairs of all edges under the node's coloring. Two tree nodes with
/// different quotient multisets cannot lead to equal leaves, so this prunes
/// the "dead subtrees" (invariant-identical until the bottom) that plain
/// refinement traces miss on geometric graphs; at a *discrete* coloring it
/// hashes the full certificate, which is what makes the automorphism
/// jump-back reliable (bliss's certificate-hash idea).
fn quotient_hash(g: &Graph, pi: &Coloring) -> u64 {
    let mut acc: u64 = 0x900d_0a90_0000_0000;
    for u in 0..g.n() as V {
        let cu = pi.color_of(u) as u64;
        for &w in g.neighbors(u) {
            if w > u {
                let cw = pi.color_of(w) as u64;
                let key = if cu <= cw { cu << 32 | cw } else { cw << 32 | cu };
                // Commutative combination: edge enumeration order is not
                // isomorphism-invariant, a sum of strong per-edge hashes is.
                acc = acc.wrapping_add(mix(0x0ed9_e0ed_9e0e_d9e0, key));
            }
        }
    }
    acc
}

/// Canonically labels `(g, pi)` with the given configuration.
///
/// ```
/// use dvicl_graph::{named, Coloring, Perm};
/// use dvicl_canon::{canonical_form, Config};
/// let g = named::petersen();
/// let shuffled = g.permuted(&Perm::from_cycles(10, &[&[0, 6, 2]]).unwrap());
/// let pi = Coloring::unit(10);
/// let cfg = Config::bliss_like();
/// assert_eq!(
///     canonical_form(&g, &pi, &cfg).form,
///     canonical_form(&shuffled, &pi, &cfg).form,
/// );
/// ```
pub fn canonical_form(g: &Graph, pi: &Coloring, config: &Config) -> CanonResult {
    try_canonical_form(g, pi, config, &Budget::unlimited())
        // dvicl-lint: allow(panic-freedom) -- Budget::unlimited() never exhausts, so the Err arm is unreachable
        .expect("unlimited search cannot exceed its budget")
}

/// The automorphism group of `(g, pi)` — generators, orbits and search
/// statistics — *without* computing a canonical form.
///
/// This is the saucy mode the paper's Section 3 describes: subtrees whose
/// invariants diverge from the reference path cannot contain automorphisms
/// of the reference leaf and are pruned unconditionally, so the search is
/// strictly smaller than a canonical run.
pub fn automorphism_group(
    g: &Graph,
    pi: &Coloring,
    config: &Config,
    budget: &Budget,
) -> Result<GroupResult, DviclError> {
    let mut config = config.clone();
    config.group_only = true;
    let r = try_canonical_form(g, pi, &config, budget)?;
    Ok(GroupResult {
        generators: r.generators,
        orbits: r.orbits,
        stats: r.stats,
    })
}

/// Output of [`automorphism_group`].
pub struct GroupResult {
    /// Generators of `Aut(G, π)`.
    pub generators: Vec<Perm>,
    /// Orbit partition of the generated group.
    pub orbits: Orbits,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Canonically labels `(g, pi)`, aborting with a typed error when the
/// budget runs out or its cancel token fires. One work unit is spent per
/// search-tree node and per refinement splitter, so short deadlines are
/// honoured even on graphs whose single refinement is expensive.
pub fn try_canonical_form(
    g: &Graph,
    pi: &Coloring,
    config: &Config,
    budget: &Budget,
) -> Result<CanonResult, DviclError> {
    let mut refiner = Refiner::new();
    try_canonical_form_with(g, pi, config, budget, &mut refiner)
}

/// [`try_canonical_form`] reusing a caller-owned [`Refiner`], so a
/// driver labeling many (sub)graphs — `core::Builder::combine_cl` runs
/// one per leaf — pays for the refiner's scratch allocations once per
/// worker instead of once per call.
pub fn try_canonical_form_with(
    g: &Graph,
    pi: &Coloring,
    config: &Config,
    budget: &Budget,
    refiner: &mut Refiner,
) -> Result<CanonResult, DviclError> {
    if g.n() != pi.n() {
        return Err(DviclError::invalid(format!(
            "graph has {} vertices but the coloring covers {}",
            g.n(),
            pi.n()
        )));
    }
    // An already-expired deadline or a pre-cancelled token must fail even
    // on graphs small enough to finish inside the first clock stride.
    budget.check()?;
    let _span = obs::span(Phase::CanonSearch);
    let mut s = Search {
        g,
        pi0: pi,
        config: config.clone(),
        budget,
        first_path: Vec::new(),
        first_leaf: None,
        first_seq: Vec::new(),
        best_path: Vec::new(),
        best_leaf: None,
        best_seq: Vec::new(),
        unwind_to: None,
        generators: Vec::new(),
        orbits: Orbits::identity(g.n()),
        stats: SearchStats::default(),
        tree: if config.record_tree {
            Some(SearchTree::default())
        } else {
            None
        },
        refiner,
    };
    if g.n() == 0 {
        return Ok(CanonResult {
            labeling: Perm::identity(0),
            form: CanonForm::new(g, &[], &[]),
            generators: Vec::new(),
            orbits: Orbits::identity(0),
            stats: s.stats,
            tree: s.tree,
        });
    }
    let root = s.refiner.try_refine(g, pi, budget)?;
    let root_inv = mix(root.trace, quotient_hash(g, &root.coloring));
    let mut fixed: Vec<V> = Vec::new();
    s.dfs(&root.coloring, root_inv, 0, true, Ordering::Equal, None, &mut fixed)?;
    // dvicl-lint: allow(panic-freedom) -- dfs reaches at least one leaf before returning Ok, and the first leaf seeds best_leaf
    let (form, labeling) = s.best_leaf.expect("search always reaches a leaf");
    Ok(CanonResult {
        labeling,
        form,
        generators: s.generators,
        orbits: s.orbits,
        stats: s.stats,
        tree: s.tree,
    })
}

struct Search<'a> {
    g: &'a Graph,
    pi0: &'a Coloring,
    config: Config,
    budget: &'a Budget,
    /// Invariant sequence along the leftmost path (the reference node).
    first_path: Vec<u64>,
    first_leaf: Option<(CanonForm, Perm)>,
    /// Individualized-vertex sequence of the first leaf.
    first_seq: Vec<V>,
    /// Invariant sequence along the current-best path.
    best_path: Vec<u64>,
    best_leaf: Option<(CanonForm, Perm)>,
    /// Individualized-vertex sequence of the best leaf.
    best_seq: Vec<V>,
    /// When set, unwind the DFS to this sequence length (McKay's jump-back
    /// after an automorphism discovery: the abandoned subtrees are images
    /// of already-explored ones under the discovered group).
    unwind_to: Option<usize>,
    generators: Vec<Perm>,
    orbits: Orbits,
    stats: SearchStats,
    tree: Option<SearchTree>,
    /// Reused refinement buffers: one refinement per DFS node, zero
    /// per-node [`dvicl_refine::Partition`] allocations. Borrowed from
    /// the caller ([`try_canonical_form_with`]) so the buffers also
    /// survive across searches.
    refiner: &'a mut Refiner,
}

impl<'a> Search<'a> {
    /// DFS over the IR tree.
    ///
    /// `inv` is the node invariant of this node (its refinement trace);
    /// `on_first` says whether the path so far matches the leftmost path's
    /// invariants; `best_cmp` is the lexicographic status of the current
    /// path against the best path (`Equal` while tracking, `Less` once this
    /// path has strictly beaten the recorded best prefix).
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &mut self,
        pi: &Coloring,
        inv: u64,
        depth: u32,
        mut on_first: bool,
        mut best_cmp: Ordering,
        parent_edge: Option<(usize, V)>,
        fixed: &mut Vec<V>,
    ) -> Result<(), DviclError> {
        self.stats.nodes += 1;
        obs::bump(Counter::SearchNodes);
        self.stats.max_depth = self.stats.max_depth.max(depth);
        dvicl_govern::fault::checkpoint(Site::CanonDfs)?;
        self.budget.spend(1)?;
        let node_id = self.record_node(pi, depth, parent_edge);
        let d = depth as usize;

        // Maintain the first-path status.
        if self.first_path.len() == d {
            // We are extending the leftmost path.
            self.first_path.push(inv);
        } else if on_first {
            on_first = d < self.first_path.len() && self.first_path[d] == inv;
        }

        // Group-only mode: a node off the reference-invariant path cannot
        // produce automorphisms of the reference leaf — prune outright.
        if self.config.group_only && !on_first {
            self.stats.pruned_invariant += 1;
            obs::bump(Counter::PrunedInvariant);
            return Ok(());
        }
        // Maintain the best-path comparison (only meaningful once some best
        // exists; while the best is being *established* on the leftmost
        // descent, best_path mirrors first_path).
        if !self.config.group_only && self.config.use_invariant {
            if best_cmp == Ordering::Equal {
                if d < self.best_path.len() {
                    match inv.cmp(&self.best_path[d]) {
                        Ordering::Less => {
                            // Everything below beats the recorded best.
                            self.best_path.truncate(d);
                            self.best_path.push(inv);
                            self.best_leaf = None;
                            best_cmp = Ordering::Equal;
                        }
                        Ordering::Greater => best_cmp = Ordering::Greater,
                        Ordering::Equal => {}
                    }
                } else if self.best_leaf.is_some() {
                    // The best leaf lies at a shallower depth with an equal
                    // invariant prefix: by the shorter-prefix-wins rule this
                    // path is worse.
                    best_cmp = Ordering::Greater;
                } else {
                    self.best_path.push(inv);
                }
            }
            // Prune: cannot contain the canonical leaf and cannot contain an
            // automorphism image of the reference (first) leaf.
            if best_cmp == Ordering::Greater && !on_first {
                self.stats.pruned_invariant += 1;
                obs::bump(Counter::PrunedInvariant);
                return Ok(());
            }
        }

        let target = self.config.target_cell.select(self.g, pi).map(|c| c.to_vec());
        let Some(target) = target else {
            return self.visit_leaf(pi, d, on_first, best_cmp, fixed);
        };

        // P_C: two sibling branches individualizing vertices in one orbit
        // of the subgroup of discovered automorphisms that fixes the whole
        // individualized sequence `ν` lead to equivalent subtrees (the
        // stabilizer element maps one onto the other, preserving both the
        // certificate order and the automorphisms discoverable below).
        // The orbit structure for P_C is grown *incrementally* and
        // *lazily*: most nodes only ever explore their first candidate
        // (the jump-back abandons the rest), so no orbit work happens
        // until a second candidate is actually examined.
        let mut stab_orbits: Option<Orbits> = None;
        let mut gens_seen = 0usize;
        let mut processed: Vec<V> = Vec::with_capacity(4);
        for &v in &target {
            if !processed.is_empty() {
                let stab = stab_orbits.get_or_insert_with(|| Orbits::identity(self.g.n()));
                while gens_seen < self.generators.len() {
                    let gen = &self.generators[gens_seen];
                    if fixed.iter().all(|&x| gen.apply(x) == x) {
                        stab.absorb(gen);
                    }
                    gens_seen += 1;
                }
                if processed.iter().any(|&w| stab.same(v, w)) {
                    self.stats.pruned_orbit += 1;
                    obs::bump(Counter::PrunedOrbit);
                    continue;
                }
            }
            processed.push(v);
            let child = self.refiner.try_refine_individualized(self.g, pi, v, self.budget)?;
            let child_inv = mix(child.trace, quotient_hash(self.g, &child.coloring));
            fixed.push(v);
            let r = self.dfs(
                &child.coloring,
                child_inv,
                depth + 1,
                on_first,
                best_cmp,
                Some((node_id, v)),
                fixed,
            );
            fixed.pop();
            r?;
            // Jump-back: an automorphism discovered below proves the
            // remaining siblings' subtrees are images of explored ones.
            if let Some(t) = self.unwind_to {
                if t < d {
                    return Ok(());
                }
                self.unwind_to = None;
            }
        }
        Ok(())
    }

    fn visit_leaf(
        &mut self,
        pi: &Coloring,
        d: usize,
        on_first: bool,
        best_cmp: Ordering,
        fixed: &[V],
    ) -> Result<(), DviclError> {
        self.stats.leaves += 1;
        obs::bump(Counter::SearchLeaves);
        let lambda = pi
            .to_perm()
            // dvicl-lint: allow(panic-freedom) -- handle_leaf is only called when target_cell found no non-singleton cell, i.e. pi is discrete
            .expect("a node with no non-singleton cell is discrete");
        let cert = CanonForm::new(self.g, self.pi0.colors(), lambda.as_slice());

        if self.first_leaf.is_none() {
            // The reference leaf; it also seeds the best.
            self.first_leaf = Some((cert.clone(), lambda.clone()));
            self.best_leaf = Some((cert, lambda));
            self.first_seq = fixed.to_vec();
            self.best_seq = fixed.to_vec();
            debug_assert!(
                self.config.group_only
                    || !self.config.use_invariant
                    || self.best_path.len() == d + 1
            );
            return Ok(());
        }

        let mut found_auto = false;
        // Automorphism against the reference leaf (γ' γ₀⁻¹ in the paper).
        if on_first {
            // dvicl-lint: allow(panic-freedom) -- first_leaf is assigned a few lines above when None, so it is always Some here
            let (first_cert, first_lambda) = self.first_leaf.as_ref().expect("set above");
            if cert == *first_cert {
                let auto = lambda.then(&first_lambda.inverse());
                found_auto |= self.add_automorphism(auto);
            }
        }

        match if self.config.group_only { Ordering::Greater } else { best_cmp } {
            Ordering::Equal => match &self.best_leaf {
                None => {
                    // This subtree established a new best prefix; the first
                    // leaf reached under it becomes the candidate.
                    if self.best_path.len() > d + 1 {
                        self.best_path.truncate(d + 1);
                    }
                    self.best_leaf = Some((cert, lambda));
                    self.best_seq = fixed.to_vec();
                }
                Some((best_cert, best_lambda)) => match cert.cmp(best_cert) {
                    Ordering::Less => {
                        self.best_path.truncate(d + 1);
                        self.best_leaf = Some((cert, lambda));
                        self.best_seq = fixed.to_vec();
                    }
                    Ordering::Equal => {
                        let auto = lambda.then(&best_lambda.inverse());
                        found_auto |= self.add_automorphism(auto);
                    }
                    Ordering::Greater => {}
                },
            },
            Ordering::Greater => {}
            // dvicl-lint: allow(panic-freedom) -- dfs only ever passes Equal or Greater: a Less invariant resets best_path and keeps best_cmp = Equal
            Ordering::Less => unreachable!("Less is never propagated"),
        }
        if found_auto {
            // McKay's jump-back: return to the deepest ancestor shared with
            // the first or best path; everything between is an image of an
            // explored subtree under the (now extended) discovered group.
            let lcp = |a: &[V], b: &[V]| a.iter().zip(b).take_while(|(x, y)| x == y).count();
            let target = lcp(fixed, &self.first_seq).max(lcp(fixed, &self.best_seq));
            if target < fixed.len() {
                self.unwind_to = Some(target);
            }
        }
        Ok(())
    }

    /// Records a discovered automorphism; returns true if non-trivial.
    fn add_automorphism(&mut self, auto: Perm) -> bool {
        if auto.is_identity() {
            return false;
        }
        debug_assert_eq!(self.g.permuted(&auto), *self.g, "non-automorphism found");
        self.orbits.absorb(&auto);
        self.generators.push(auto);
        self.stats.generators_found += 1;
        obs::bump(Counter::AutFound);
        true
    }

    fn record_node(&mut self, pi: &Coloring, depth: u32, parent: Option<(usize, V)>) -> usize {
        match &mut self.tree {
            Some(tree) => tree.push(NodeRecord {
                coloring: pi.to_string(),
                depth,
                parent: parent.map(|(p, _)| p),
                individualized: parent.map(|(_, v)| v),
            }),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_graph::named;
    use dvicl_group::{brute, BigUint, StabChain};

    fn check_graph(g: &Graph) {
        let pi = Coloring::unit(g.n());
        for config in [Config::bliss_like(), Config::nauty_like(), Config::traces_like()] {
            let r = canonical_form(g, &pi, &config);
            // Certificate invariance under relabeling.
            let gamma = pseudo_random_perm(g.n());
            let gg = g.permuted(&gamma);
            let r2 = canonical_form(&gg, &pi, &config);
            assert_eq!(r.form, r2.form, "{config:?} not relabeling-invariant");
            // The labeling actually produces the certificate.
            let direct = CanonForm::new(g, pi.colors(), r.labeling.as_slice());
            assert_eq!(direct, r.form);
            // Group order matches brute force (small graphs only).
            if g.n() <= 10 {
                let expected = brute::automorphism_count(g, &pi);
                let chain = StabChain::new(g.n(), &r.generators);
                assert_eq!(
                    chain.order(),
                    BigUint::from_u64(expected),
                    "{config:?} group order mismatch"
                );
            }
        }
    }

    /// A fixed "random-looking" permutation (deterministic tests).
    fn pseudo_random_perm(n: usize) -> Perm {
        let mut image: Vec<V> = (0..n as V).collect();
        let mut state = 0x243f6a8885a308d3u64 ^ n as u64;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            image.swap(i, j);
        }
        Perm::from_image(image).expect("shuffle is a bijection")
    }

    #[test]
    fn named_graphs_all_configs() {
        for g in [
            named::complete(5),
            named::cycle(6),
            named::path(5),
            named::star(5),
            named::complete_bipartite(3, 3),
            named::petersen(),
            named::hypercube(3),
            named::frucht(),
            named::fig1_example(),
            named::fig3_example(),
        ] {
            check_graph(&g);
        }
    }

    #[test]
    fn distinguishes_non_isomorphic_same_degree_sequence() {
        // C6 vs 2×C3: both 2-regular on 6 vertices.
        let c6 = named::cycle(6);
        let cc = named::cycle(3).disjoint_union(&named::cycle(3));
        let pi = Coloring::unit(6);
        let cfg = Config::bliss_like();
        assert_ne!(
            canonical_form(&c6, &pi, &cfg).form,
            canonical_form(&cc, &pi, &cfg).form
        );
        // K3,3 vs the prism (both 3-regular on 6 vertices).
        let k33 = named::complete_bipartite(3, 3);
        let prism = Graph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],
        );
        assert_ne!(
            canonical_form(&k33, &pi, &cfg).form,
            canonical_form(&prism, &pi, &cfg).form
        );
    }

    #[test]
    fn respects_initial_coloring() {
        // A 4-cycle with one vertex pinned has |Aut| = 2, not 8.
        let g = named::cycle(4);
        let pi = Coloring::from_cells(vec![vec![1, 2, 3], vec![0]]).unwrap();
        let r = canonical_form(&g, &pi, &Config::bliss_like());
        let chain = StabChain::new(4, &r.generators);
        assert_eq!(chain.order().to_u64(), Some(2));
    }

    #[test]
    fn orbits_match_brute_force() {
        let g = named::fig1_example();
        let pi = Coloring::unit(8);
        let mut r = canonical_form(&g, &pi, &Config::bliss_like());
        let cells = r.orbits.cells();
        assert_eq!(cells, vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7]]);
    }

    #[test]
    fn work_budget_aborts() {
        // The 4x4 rook's graph-ish torus has a big search tree relative to
        // a 2-unit work budget.
        let g = named::torus2(4, 4);
        let pi = Coloring::unit(g.n());
        let r = try_canonical_form(&g, &pi, &Config::bliss_like(), &Budget::with_max_work(2));
        assert!(matches!(
            r,
            Err(DviclError::BudgetExceeded {
                resource: dvicl_govern::Resource::WorkUnits,
                ..
            })
        ));
    }

    #[test]
    fn expired_deadline_aborts() {
        let g = named::torus2(4, 4);
        let pi = Coloring::unit(g.n());
        let budget = Budget::with_deadline(std::time::Duration::from_nanos(1));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let r = try_canonical_form(&g, &pi, &Config::bliss_like(), &budget);
        assert!(matches!(
            r,
            Err(DviclError::BudgetExceeded {
                resource: dvicl_govern::Resource::WallClock,
                ..
            })
        ));
    }

    #[test]
    fn cancellation_aborts() {
        let g = named::torus2(4, 4);
        let pi = Coloring::unit(g.n());
        let budget = Budget::new(None, None);
        budget.cancel_token().cancel();
        let r = try_canonical_form(&g, &pi, &Config::bliss_like(), &budget);
        assert_eq!(r.err(), Some(DviclError::Cancelled));
    }

    #[test]
    fn search_tree_recording() {
        let g = named::fig1_example();
        let pi = Coloring::unit(8);
        let mut cfg = Config::bliss_like();
        cfg.record_tree = true;
        let r = canonical_form(&g, &pi, &cfg);
        let tree = r.tree.expect("recording requested");
        assert!(tree.len() as u64 == r.stats.nodes);
        assert_eq!(tree.node(0).depth, 0);
        assert!(tree.node(0).parent.is_none());
    }

    #[test]
    fn stats_reflect_pruning() {
        let g = named::complete(6);
        let pi = Coloring::unit(6);
        let r = canonical_form(&g, &pi, &Config::bliss_like());
        // K6: without P_C the tree would have 6! leaves; with orbit pruning
        // the leftmost path dominates.
        assert!(r.stats.leaves < 720);
        assert!(r.stats.pruned_orbit > 0);
        let chain = StabChain::new(6, &r.generators);
        assert_eq!(chain.order(), BigUint::factorial(6));
    }

    #[test]
    fn colored_graph_isomorphism_semantics() {
        // Same graph, different colorings that are NOT related by any
        // automorphism: certificates must differ.
        let g = named::path(3); // 0-1-2
        let pi_end = Coloring::from_cells(vec![vec![1, 2], vec![0]]).unwrap();
        let pi_mid = Coloring::from_cells(vec![vec![0, 2], vec![1]]).unwrap();
        let cfg = Config::bliss_like();
        assert_ne!(
            canonical_form(&g, &pi_end, &cfg).form,
            canonical_form(&g, &pi_mid, &cfg).form
        );
        // ...but pinning the other end gives an isomorphic colored graph.
        let pi_end2 = Coloring::from_cells(vec![vec![0, 1], vec![2]]).unwrap();
        assert_eq!(
            canonical_form(&g, &pi_end, &cfg).form,
            canonical_form(&g, &pi_end2, &cfg).form
        );
    }
}
