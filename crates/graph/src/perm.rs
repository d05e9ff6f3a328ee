//! Vertex permutations (`γ` in the paper): dense [`Perm`] and
//! support-only [`SparsePerm`].

use crate::V;
use std::fmt;

/// A permutation of `0..n`, stored as its image array: `image[v] = v^γ`.
///
/// The paper applies permutations as a right action (`v^γ`), and composes
/// left-to-right: `v^(γδ) = (v^γ)^δ`. [`Perm::then`] implements that
/// composition.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Perm {
    image: Vec<V>,
}

impl Perm {
    /// The identity permutation `ι` on `n` points.
    pub fn identity(n: usize) -> Self {
        Perm {
            image: (0..n as V).collect(),
        }
    }

    /// Builds a permutation from its image array. Returns `None` if `image`
    /// is not a bijection on `0..image.len()`.
    pub fn from_image(image: Vec<V>) -> Option<Self> {
        let n = image.len();
        let mut seen = vec![false; n];
        for &x in &image {
            let x = x as usize;
            if x >= n || seen[x] {
                return None;
            }
            seen[x] = true;
        }
        Some(Perm { image })
    }

    /// Builds a permutation from its image array without validating
    /// bijectivity. Callers must guarantee `image` is a permutation of
    /// `0..image.len()`; [`Perm::from_image`] is the checked variant.
    pub fn from_image_unchecked(image: Vec<V>) -> Self {
        debug_assert!(Perm::from_image(image.clone()).is_some());
        Perm { image }
    }

    /// Builds a permutation on `n` points from disjoint cycles; vertices not
    /// mentioned are fixed. Returns `None` on out-of-range or repeated
    /// entries.
    pub fn from_cycles(n: usize, cycles: &[&[V]]) -> Option<Self> {
        let mut image: Vec<V> = (0..n as V).collect();
        let mut seen = vec![false; n];
        for cycle in cycles {
            for (i, &v) in cycle.iter().enumerate() {
                let v = v as usize;
                if v >= n || seen[v] {
                    return None;
                }
                seen[v] = true;
                image[v] = cycle[(i + 1) % cycle.len()];
            }
        }
        Some(Perm { image })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.image.len()
    }

    /// True for the permutation on zero points.
    pub fn is_empty(&self) -> bool {
        self.image.is_empty()
    }

    /// The image `v^γ`.
    #[inline]
    pub fn apply(&self, v: V) -> V {
        self.image[v as usize]
    }

    /// The raw image slice.
    pub fn as_slice(&self) -> &[V] {
        &self.image
    }

    /// Consumes the permutation and returns the image array.
    pub fn into_image(self) -> Vec<V> {
        self.image
    }

    /// Left-to-right composition: `(self.then(other))(v) = other(self(v))`,
    /// i.e. `v^(γδ)` with `γ = self`, `δ = other`.
    #[inline]
    pub fn then(&self, other: &Perm) -> Perm {
        assert_eq!(self.len(), other.len(), "composing perms of unequal size");
        Perm {
            image: self.image.iter().map(|&v| other.apply(v)).collect(),
        }
    }

    /// The inverse permutation `γ⁻¹`.
    #[inline]
    pub fn inverse(&self) -> Perm {
        let mut inv = vec![0; self.len()];
        for (v, &img) in self.image.iter().enumerate() {
            inv[img as usize] = v as V;
        }
        Perm { image: inv }
    }

    /// True iff this is the identity.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.image.iter().enumerate().all(|(i, &v)| i as V == v)
    }

    /// Vertices moved by the permutation (the support), ascending.
    pub fn support(&self) -> Vec<V> {
        self.image
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i as V != v)
            .map(|(i, _)| i as V)
            .collect()
    }

    /// Decomposes into non-trivial disjoint cycles, each rotated to start at
    /// its minimum element, ordered by that minimum.
    pub fn cycles(&self) -> Vec<Vec<V>> {
        cycles_of(&self.support(), |v| self.apply(v))
    }

    /// The order of the permutation (lcm of cycle lengths).
    pub fn order(&self) -> u64 {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        self.cycles()
            .iter()
            .map(|c| c.len() as u64)
            .fold(1, |acc, l| acc / gcd(acc, l) * l)
    }
}

impl fmt::Debug for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Perm {
    /// Cycle notation, e.g. `(0,6)(1,5)(2,3,4)`; the identity prints as `()`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_cycles(f, &self.cycles())
    }
}

/// A permutation of `0..n` stored by its support: the moved points in
/// ascending order and their images, `images[i] = support[i]^γ`.
///
/// Fixed points cost nothing, so a permutation that moves `k` points
/// takes O(k) memory whatever `n` is: the AutoTree's generators (leaf
/// automorphisms and sibling swaps) move few points of a large graph.
/// It prints exactly as the equal [`Perm`] does; [`SparsePerm::to_dense`]
/// gives that [`Perm`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SparsePerm {
    n: usize,
    support: Vec<V>,
    images: Vec<V>,
}

impl SparsePerm {
    /// Builds a permutation on `n` points from `(v, v^γ)` pairs, in any
    /// order; points not named are fixed, and pairs with `v = v^γ` are
    /// dropped. Returns `None` if a point lies outside `0..n`, a source
    /// appears twice, or the moved images are not exactly the moved
    /// sources (the pairs are not a bijection on their support).
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (V, V)>) -> Option<Self> {
        let mut pairs: Vec<(V, V)> = pairs.into_iter().collect();
        if pairs
            .iter()
            .any(|&(v, w)| v as usize >= n || w as usize >= n)
        {
            return None;
        }
        pairs.sort_unstable();
        if pairs.windows(2).any(|p| p[0].0 == p[1].0) {
            return None;
        }
        pairs.retain(|&(v, w)| v != w);
        let (support, images): (Vec<V>, Vec<V>) = pairs.into_iter().unzip();
        // `support` is strictly ascending, so equal sorted images means
        // distinct images drawn from exactly the support.
        let mut sorted = images.clone();
        sorted.sort_unstable();
        (sorted == support).then_some(SparsePerm { n, support, images })
    }

    /// Number of points `n` (moved or fixed).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the permutation on zero points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The image `v^γ`.
    pub fn apply(&self, v: V) -> V {
        match self.support.binary_search(&v) {
            Ok(i) => self.images[i],
            Err(_) => v,
        }
    }

    /// Vertices moved by the permutation (the support), ascending.
    pub fn support(&self) -> &[V] {
        &self.support
    }

    /// The same permutation as a dense [`Perm`] on `n` points.
    pub fn to_dense(&self) -> Perm {
        let mut image: Vec<V> = (0..self.n as V).collect();
        for (&v, &w) in self.support.iter().zip(&self.images) {
            image[v as usize] = w;
        }
        Perm::from_image_unchecked(image)
    }
}

impl fmt::Debug for SparsePerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SparsePerm {
    /// The same cycle notation as [`Perm`]'s.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_cycles(f, &cycles_of(&self.support, |v| self.apply(v)))
    }
}

/// The non-trivial cycles of the permutation `apply` whose moved points
/// are `support` (ascending): each rotated to start at its minimum, in
/// order of that minimum.
fn cycles_of(support: &[V], apply: impl Fn(V) -> V) -> Vec<Vec<V>> {
    let mut seen = vec![false; support.len()];
    let mut out = Vec::new();
    for (i, &start) in support.iter().enumerate() {
        if seen[i] {
            continue;
        }
        let mut cycle = vec![start];
        let mut v = apply(start);
        while v != start {
            if let Ok(j) = support.binary_search(&v) {
                seen[j] = true;
            }
            cycle.push(v);
            v = apply(v);
        }
        out.push(cycle);
    }
    out
}

/// Writes `cycles` in cycle notation, e.g. `(0,6)(1,5)(2,3,4)`; no cycles
/// print as `()`. Both permutation types print through this.
fn write_cycles(f: &mut fmt::Formatter<'_>, cycles: &[Vec<V>]) -> fmt::Result {
    if cycles.is_empty() {
        return write!(f, "()");
    }
    for cycle in cycles {
        write!(f, "(")?;
        for (i, v) in cycle.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let id = Perm::identity(5);
        assert!(id.is_identity());
        assert_eq!(id.inverse(), id);
        assert_eq!(id.then(&id), id);
        assert_eq!(id.to_string(), "()");
        assert_eq!(id.order(), 1);
    }

    #[test]
    fn from_cycles_matches_paper_example() {
        // γ1 = (4,5,6) from Fig. 1(a): relabels 4 as 5, 5 as 6, 6 as 4.
        let g = Perm::from_cycles(8, &[&[4, 5, 6]]).unwrap();
        assert_eq!(g.apply(4), 5);
        assert_eq!(g.apply(5), 6);
        assert_eq!(g.apply(6), 4);
        assert_eq!(g.apply(0), 0);
        assert_eq!(g.to_string(), "(4,5,6)");
        assert_eq!(g.order(), 3);
    }

    #[test]
    fn compose_is_left_to_right() {
        let a = Perm::from_cycles(3, &[&[0, 1]]).unwrap();
        let b = Perm::from_cycles(3, &[&[1, 2]]).unwrap();
        // v^(ab): 0 -a-> 1 -b-> 2
        assert_eq!(a.then(&b).apply(0), 2);
        assert_eq!(b.then(&a).apply(0), 1);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let g = Perm::from_cycles(8, &[&[0, 6], &[1, 5], &[2, 3, 4]]).unwrap();
        assert!(g.then(&g.inverse()).is_identity());
        assert!(g.inverse().then(&g).is_identity());
    }

    #[test]
    fn rejects_non_bijections() {
        assert!(Perm::from_image(vec![0, 0, 1]).is_none());
        assert!(Perm::from_image(vec![0, 3, 1]).is_none());
        assert!(Perm::from_cycles(3, &[&[0, 1], &[1, 2]]).is_none());
        assert!(Perm::from_cycles(3, &[&[0, 5]]).is_none());
    }

    #[test]
    fn cycles_and_support() {
        let g = Perm::from_cycles(8, &[&[0, 6], &[2, 3, 4]]).unwrap();
        assert_eq!(g.cycles(), vec![vec![0, 6], vec![2, 3, 4]]);
        assert_eq!(g.support(), vec![0, 2, 3, 4, 6]);
        assert_eq!(g.order(), 6);
    }

    #[test]
    fn display_is_sorted_by_min_element() {
        let g = Perm::from_cycles(8, &[&[5, 6], &[1, 2]]).unwrap();
        assert_eq!(g.to_string(), "(1,2)(5,6)");
    }

    #[test]
    fn sparse_matches_dense() {
        let dense = Perm::from_cycles(9, &[&[0, 6], &[1, 5], &[2, 3, 4]]).unwrap();
        let sparse =
            SparsePerm::from_pairs(9, [(4, 2), (0, 6), (6, 0), (2, 3), (5, 1), (3, 4), (1, 5)])
                .unwrap();
        assert_eq!(sparse.len(), 9);
        assert_eq!(sparse.support(), dense.support().as_slice());
        assert_eq!(sparse.to_string(), "(0,6)(1,5)(2,3,4)");
        assert_eq!(sparse.to_string(), dense.to_string());
        assert_eq!(sparse.to_dense(), dense);
        for v in 0..9 {
            assert_eq!(sparse.apply(v), dense.apply(v));
        }
    }

    #[test]
    fn sparse_identity_prints_empty_cycle() {
        let id = SparsePerm::from_pairs(4, []).unwrap();
        assert_eq!(id.to_string(), "()");
        assert!(id.support().is_empty());
        assert!(id.to_dense().is_identity());
        // Fixed pairs are dropped, not stored.
        assert_eq!(SparsePerm::from_pairs(4, [(2, 2)]).unwrap(), id);
        assert_eq!(SparsePerm::from_pairs(0, []).unwrap().to_string(), "()");
    }

    #[test]
    fn sparse_rejects_non_bijections() {
        // Out of range, as a source or as an image.
        assert!(SparsePerm::from_pairs(3, [(0, 3), (3, 0)]).is_none());
        assert!(SparsePerm::from_pairs(3, [(5, 5)]).is_none());
        // Repeated source, even with the same image or a fixed pair.
        assert!(SparsePerm::from_pairs(3, [(0, 1), (0, 1), (1, 0)]).is_none());
        assert!(SparsePerm::from_pairs(3, [(0, 0), (0, 1), (1, 0)]).is_none());
        // Two sources onto one image.
        assert!(SparsePerm::from_pairs(3, [(0, 2), (1, 2), (2, 0)]).is_none());
        // An image that is not itself moved.
        assert!(SparsePerm::from_pairs(3, [(0, 1)]).is_none());
        assert!(SparsePerm::from_pairs(4, [(0, 1), (1, 2), (3, 0)]).is_none());
    }
}
