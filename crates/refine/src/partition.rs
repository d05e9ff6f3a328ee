//! Worklist partition refinement over an ordered partition.
//!
//! The representation follows nauty's: `lab` holds the vertices in partition
//! order, `pos` is its inverse, `cell_start[v]` is the start position of the
//! cell containing `v` (which *is* the vertex's color under the paper's
//! color definition), and `cell_len[s]` is the length of the cell starting
//! at position `s` (meaningful only at start positions).
//!
//! One splitter pass scatters neighbor counts over the splitter's
//! adjacency lists, decides from per-cell aggregates of the *touched*
//! members which cells split, and orders each splitting cell by
//! count — with a degree-bucket radix split on large cells — before
//! [`Partition::rewrite_split`] rewrites it.

use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{Coloring, Graph, V};
use dvicl_obs::{self as obs, Counter};
use std::collections::VecDeque;

/// Cells shorter than this are split with a comparison sort: the radix
/// path's histogram only amortizes once the sort it replaces is
/// superlinear in practice.
const RADIX_MIN_LEN: usize = 32;

/// An ordered partition of `0..n` supporting splitter-based refinement.
#[derive(Default)]
pub struct Partition {
    lab: Vec<V>,
    pos: Vec<u32>,
    cell_start: Vec<u32>,
    cell_len: Vec<u32>,
    // Scratch: neighbor counts per vertex during a splitter pass.
    cnt: Vec<u32>,
    // Worklist of cell start positions + membership flags.
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    // Scratch: dedup flags for cells touched by the current splitter.
    in_affected: Vec<bool>,
    // Vertices whose cells became singletons during the current run, in
    // creation order (isomorphism-invariant, since creation follows the
    // invariant queue discipline).
    new_singletons: Vec<V>,
    // Scratch: vertices with a nonzero count in the current pass.
    touched: Vec<V>,
    // Scratch: affected cell starts of the current pass, ascending.
    affected: Vec<u32>,
    // Scratch: one cell's `(count, vertex)` pairs in span order.
    members: Vec<(u32, V)>,
    // Scratch: radix-ordered copy of `members`, and its count histogram.
    sorted: Vec<(u32, V)>,
    hist: Vec<u32>,
    // Per-cell aggregates over *touched* members, indexed by cell start
    // and reset through `affected` after every splitter: how many
    // members were touched, and the min/max of their counts. A cell
    // splits iff some member was untouched (`touched < len`, giving a
    // zero-count fragment) or the touched counts differ — decidable in
    // O(touched) without scanning the cell, which is what makes
    // repeatedly-grazed hub cells cheap.
    touched_cnt: Vec<u32>,
    touched_min: Vec<u32>,
    touched_max: Vec<u32>,
}

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    // A simple strong mixer (splitmix64 finalizer over h ^ x).
    let mut z = h ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Partition {
    /// An empty partition over zero vertices: the starting state for
    /// [`Partition::reset_from_coloring`]-based reuse.
    pub fn new() -> Self {
        Partition::default()
    }

    /// Builds the internal representation from a [`Coloring`].
    pub fn from_coloring(n: usize, pi: &Coloring) -> Self {
        let mut p = Partition::new();
        p.reset_from_coloring(n, pi);
        p
    }

    /// Re-initializes this partition from a [`Coloring`], reusing every
    /// internal buffer. State after this call is identical to a fresh
    /// [`Partition::from_coloring`] — only the allocations differ, which
    /// is what lets the IR search refine thousands of nodes without a
    /// single per-node `Vec` allocation.
    pub fn reset_from_coloring(&mut self, n: usize, pi: &Coloring) {
        assert_eq!(n, pi.n());
        self.lab.clear();
        self.lab.reserve(n);
        self.cell_len.clear();
        self.cell_len.resize(n, 0);
        for cell in pi.cells() {
            // dvicl-lint: allow(narrowing-cast) -- a cell holds at most n <= V::MAX vertices
            self.cell_len[self.lab.len()] = cell.len() as u32;
            self.lab.extend_from_slice(cell);
        }
        self.pos.clear();
        self.pos.resize(n, 0);
        for (i, &v) in self.lab.iter().enumerate() {
            // dvicl-lint: allow(narrowing-cast) -- i indexes lab, which has n <= V::MAX entries
            self.pos[v as usize] = i as u32;
        }
        self.cell_start.clear();
        self.cell_start.resize(n, 0);
        let mut s = 0usize;
        while s < n {
            let len = self.cell_len[s] as usize;
            for i in s..s + len {
                // dvicl-lint: allow(narrowing-cast) -- s < n <= V::MAX
                self.cell_start[self.lab[i] as usize] = s as u32;
            }
            s += len;
        }
        self.cnt.clear();
        self.cnt.resize(n, 0);
        self.queue.clear();
        self.in_queue.clear();
        self.in_queue.resize(n, false);
        self.in_affected.clear();
        self.in_affected.resize(n, false);
        self.new_singletons.clear();
        // The aggregate arrays at their resting state (no touched
        // members recorded); every splitter pass restores it.
        self.touched_cnt.clear();
        self.touched_cnt.resize(n, 0);
        self.touched_min.clear();
        self.touched_min.resize(n, u32::MAX);
        self.touched_max.clear();
        self.touched_max.resize(n, 0);
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.lab.len()
    }

    /// The color (cell start position) of `v`.
    #[inline]
    pub fn color_of(&self, v: V) -> u32 {
        self.cell_start[v as usize]
    }

    /// The vertices whose cells became singletons during the last run, in
    /// creation order.
    pub fn new_singletons(&self) -> &[V] {
        &self.new_singletons
    }

    /// Converts back to a [`Coloring`].
    pub fn to_coloring(&self) -> Coloring {
        let n = self.n();
        let mut cells = Vec::new();
        let mut s = 0usize;
        while s < n {
            let len = self.cell_len[s] as usize;
            cells.push(self.lab[s..s + len].to_vec());
            s += len;
        }
        // dvicl-lint: allow(panic-freedom) -- lab is a permutation of 0..n and the cell spans tile it, so the cells partition 0..n
        Coloring::from_cells(cells).expect("partition is always a valid coloring")
    }

    fn enqueue(&mut self, s: u32) {
        if !self.in_queue[s as usize] {
            self.in_queue[s as usize] = true;
            self.queue.push_back(s);
        }
    }

    fn enqueue_all_cells(&mut self) {
        let n = self.n();
        let mut s = 0usize;
        while s < n {
            // dvicl-lint: allow(narrowing-cast) -- s < n <= V::MAX
            self.enqueue(s as u32);
            s += self.cell_len[s] as usize;
        }
    }

    /// Refines to the coarsest equitable partition, returning the trace
    /// hash. All current cells are used as initial splitters;
    /// every singleton cell of the *result* counts as newly created.
    pub fn refine(&mut self, g: &Graph) -> u64 {
        self.seed_refine();
        self.run(g, 0x5ee2_c3a1_d00d_f00d, None)
            // dvicl-lint: allow(panic-freedom) -- run() only errs on budget exhaustion, and no budget is passed here
            .expect("un-budgeted refinement cannot fail")
    }

    /// Budgeted [`Partition::refine`]: spends one work unit per splitter
    /// processed, so a deadline interrupts refinement itself, not just
    /// the search loop around it.
    pub fn try_refine(&mut self, g: &Graph, budget: &Budget) -> Result<u64, DviclError> {
        self.seed_refine();
        self.run(g, 0x5ee2_c3a1_d00d_f00d, Some(budget))
    }

    fn seed_refine(&mut self) {
        let n = self.n();
        let mut s = 0usize;
        while s < n {
            if self.cell_len[s] == 1 {
                self.new_singletons.push(self.lab[s]);
            }
            s += self.cell_len[s] as usize;
        }
        self.enqueue_all_cells();
    }

    /// Individualizes `v` (splitting it to the front of its cell) and
    /// refines with the two fragments as seeds. Panics if `v`
    /// is already in a singleton cell. Returns the trace hash, seeded
    /// with `v`'s color — an isomorphism-invariant of the branching
    /// decision.
    pub fn individualize_and_refine(&mut self, g: &Graph, v: V) -> u64 {
        let seed = self.seed_individualize(v);
        self.run(g, seed, None)
            // dvicl-lint: allow(panic-freedom) -- run() only errs on budget exhaustion, and no budget is passed here
            .expect("un-budgeted refinement cannot fail")
    }

    /// Budgeted [`Partition::individualize_and_refine`].
    pub fn try_individualize_and_refine(
        &mut self,
        g: &Graph,
        v: V,
        budget: &Budget,
    ) -> Result<u64, DviclError> {
        let seed = self.seed_individualize(v);
        self.run(g, seed, Some(budget))
    }

    // dvicl-lint: allow(budget-reachability) -- O(cell length) splice of {v} to the cell front; run() meters the refinement that follows
    fn seed_individualize(&mut self, v: V) -> u64 {
        let s = self.cell_start[v as usize];
        let len = self.cell_len[s as usize];
        assert!(len > 1, "cannot individualize a singleton cell");
        // Swap v to the front of its cell and split off {v}.
        let pv = self.pos[v as usize];
        let first = self.lab[s as usize];
        self.lab[s as usize] = v;
        self.lab[pv as usize] = first;
        self.pos[v as usize] = s;
        self.pos[first as usize] = pv;
        self.cell_len[s as usize] = 1;
        self.cell_len[s as usize + 1] = len - 1;
        for i in (s + 1)..(s + len) {
            self.cell_start[self.lab[i as usize] as usize] = s + 1;
        }
        self.new_singletons.push(v);
        if len == 2 {
            self.new_singletons.push(self.lab[s as usize + 1]);
        }
        self.enqueue(s);
        self.enqueue(s + 1);
        mix(0x01d1_71da_71ba_5eed, s as u64)
    }

    /// Core worklist loop. `seed` initializes the trace hash; one work
    /// unit is spent per splitter when a budget is supplied.
    fn run(&mut self, g: &Graph, seed: u64, budget: Option<&Budget>) -> Result<u64, DviclError> {
        let mut trace = seed;
        while let Some(s) = self.queue.pop_front() {
            obs::bump(Counter::RefineRounds);
            if let Some(b) = budget {
                b.spend(1)?;
            }
            self.in_queue[s as usize] = false;
            trace = mix(trace, 0xA110 ^ (s as u64) << 16);
            trace = self.split_by(g, s as usize, trace);
            // Early exit: a discrete partition cannot split further.
            // (Checked cheaply: every cell len 1 iff no queue progress can
            // help, but scanning is O(n); rely on natural termination.)
        }
        Ok(trace)
    }

    /// Uses the cell at start `s` as a splitter: scatters each vertex's
    /// neighbor count in that cell, then splits every affected cell.
    /// Affected cells are discovered from the touched vertices and
    /// processed in ascending start order. No splitter snapshot is taken:
    /// the scatter loop finishes before any split moves `lab`, so the
    /// splitter's span is stable while it is read. Returns the updated
    /// trace.
    fn split_by(&mut self, g: &Graph, s: usize, mut trace: u64) -> u64 {
        let len = self.cell_len[s] as usize;
        self.touched.clear();
        for i in s..s + len {
            let u = self.lab[i];
            for &w in g.neighbors(u) {
                if self.cnt[w as usize] == 0 {
                    self.touched.push(w);
                }
                self.cnt[w as usize] += 1;
            }
        }
        if self.touched.is_empty() {
            return trace;
        }
        // Discover affected cells and aggregate their touched members
        // (counts are final once the scatter loop above completes).
        self.affected.clear();
        for i in 0..self.touched.len() {
            let w = self.touched[i];
            let c = self.cell_start[w as usize] as usize;
            if self.cell_len[c] <= 1 {
                continue;
            }
            if !self.in_affected[c] {
                self.in_affected[c] = true;
                // dvicl-lint: allow(narrowing-cast) -- c < n <= V::MAX
                self.affected.push(c as u32);
            }
            let cv = self.cnt[w as usize];
            self.touched_cnt[c] += 1;
            self.touched_min[c] = self.touched_min[c].min(cv);
            self.touched_max[c] = self.touched_max[c].max(cv);
        }
        self.affected.sort_unstable();
        for i in 0..self.affected.len() {
            let c = self.affected[i] as usize;
            self.in_affected[c] = false;
            let clen = self.cell_len[c] as usize;
            let tc = self.touched_cnt[c] as usize;
            let (lo, hi) = (self.touched_min[c], self.touched_max[c]);
            self.touched_cnt[c] = 0;
            self.touched_min[c] = u32::MAX;
            self.touched_max[c] = 0;
            // Uniform iff every member was touched and with the same
            // count (untouched members count zero, touched ones at least
            // one): such a cell does not split and is never scanned.
            if tc == clen && lo == hi {
                continue;
            }
            let lo = if tc < clen { 0 } else { lo };
            trace = self.split_cell(c, clen, lo, hi, trace);
        }
        for i in 0..self.touched.len() {
            self.cnt[self.touched[i] as usize] = 0;
        }
        trace
    }

    /// Splits the non-uniform cell `[c, c+len)` whose counts range over
    /// `[lo, hi]`, feeding [`Partition::rewrite_split`] its members
    /// ordered by count.
    ///
    /// Large cells with a compact count range go through a degree-bucket
    /// radix split (a counting sort straight off the span); small cells,
    /// or counts too spread for a histogram, take a comparison sort.
    /// Vertex order within a fragment is free: [`Partition::to_coloring`]
    /// sorts every cell, and the trace, the Hopcroft fragment choice and
    /// [`Partition::new_singletons`] depend only on fragment counts and
    /// positions. Returns the updated trace.
    fn split_cell(&mut self, c: usize, len: usize, lo: u32, hi: u32, trace: u64) -> u64 {
        self.members.clear();
        for i in c..c + len {
            let v = self.lab[i];
            self.members.push((self.cnt[v as usize], v));
        }
        let spread = (hi - lo) as usize;
        if len < RADIX_MIN_LEN || spread > 4 * len {
            self.members.sort_unstable();
            let members = std::mem::take(&mut self.members);
            let trace = self.rewrite_split(c, &members, trace);
            self.members = members;
            return trace;
        }
        // Degree-bucket radix split: histogram the counts, then place
        // each member stably into its count bucket.
        self.hist.clear();
        self.hist.resize(spread + 1, 0);
        for &(cv, _) in &self.members {
            self.hist[(cv - lo) as usize] += 1;
        }
        let mut run = 0u32;
        for h in &mut self.hist {
            let start = run;
            run += *h;
            *h = start;
        }
        self.sorted.clear();
        self.sorted.resize(len, (0, 0));
        for &(cv, v) in &self.members {
            let slot = self.hist[(cv - lo) as usize];
            self.sorted[slot as usize] = (cv, v);
            self.hist[(cv - lo) as usize] = slot + 1;
        }
        obs::bump(Counter::RadixSplits);
        let sorted = std::mem::take(&mut self.sorted);
        let trace = self.rewrite_split(c, &sorted, trace);
        self.sorted = sorted;
        trace
    }

    /// The rewrite half of one cell split: takes the cell at start `c`
    /// and its `members` as `(splitter-neighbor count, vertex)` pairs
    /// with non-decreasing counts, at least two of them distinct, and
    /// performs the split — Hopcroft's largest-fragment worklist
    /// exemption, the span/pos/cell rewrite, singleton tracking, the
    /// per-fragment trace mix and fragment enqueueing. Returns the
    /// updated trace.
    // dvicl-lint: allow(budget-reachability) -- O(cell length) rewrite of one cell span; run() meters the worklist that drives it
    fn rewrite_split(&mut self, c: usize, members: &[(u32, V)], mut trace: u64) -> u64 {
        let len = members.len();
        debug_assert_eq!(len, self.cell_len[c] as usize);
        debug_assert!(
            members.windows(2).all(|w| w[0].0 <= w[1].0),
            "member counts must not decrease"
        );
        debug_assert_ne!(
            members[0].0,
            members[len - 1].0,
            "uniform cells never split"
        );
        // Hopcroft rule: if the split cell is not itself pending as a
        // splitter, the largest fragment can stay off the worklist — the
        // other fragments subsume its splitting power. (If it IS pending,
        // every fragment must be queued to preserve its pending role.)
        let cell_was_queued = self.in_queue[c];
        let mut largest_start = u32::MAX;
        if !cell_was_queued {
            let mut largest_len = 0u32;
            let mut i = 0usize;
            while i < len {
                let count = members[i].0;
                let mut j = i;
                while j < len && members[j].0 == count {
                    j += 1;
                }
                // dvicl-lint: allow(narrowing-cast) -- fragment length and start are < n <= V::MAX
                if (j - i) as u32 > largest_len {
                    // dvicl-lint: allow(narrowing-cast) -- fragment length and start are < n <= V::MAX
                    largest_len = (j - i) as u32;
                    // dvicl-lint: allow(narrowing-cast) -- fragment length and start are < n <= V::MAX
                    largest_start = (c + i) as u32;
                }
                i = j;
            }
        }
        // Rewrite the span and fix up bookkeeping per fragment.
        let mut i = 0usize;
        while i < len {
            let count = members[i].0;
            let mut j = i;
            while j < len && members[j].0 == count {
                j += 1;
            }
            // dvicl-lint: allow(narrowing-cast) -- fragment length and start are < n <= V::MAX
            let frag_start = (c + i) as u32;
            // dvicl-lint: allow(narrowing-cast) -- fragment length and start are < n <= V::MAX
            let frag_len = (j - i) as u32;
            for (k, &(_, v)) in members[i..j].iter().enumerate() {
                let p = c + i + k;
                self.lab[p] = v;
                // dvicl-lint: allow(narrowing-cast) -- p < n <= V::MAX
                self.pos[v as usize] = p as u32;
                self.cell_start[v as usize] = frag_start;
            }
            self.cell_len[frag_start as usize] = frag_len;
            if frag_len == 1 {
                self.new_singletons.push(self.lab[frag_start as usize]);
            }
            trace = mix(
                trace,
                ((frag_start as u64) << 40) ^ ((frag_len as u64) << 20) ^ count as u64,
            );
            if frag_start != largest_start {
                self.enqueue(frag_start);
            }
            i = j;
        }
        trace
    }
}
