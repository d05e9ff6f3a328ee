//! Graph substrate for the DviCL reproduction.
//!
//! This crate provides the foundational data types shared by every other
//! crate in the workspace:
//!
//! * [`Graph`] — an immutable undirected simple graph in CSR (compressed
//!   sparse row) form, the representation used by the refinement and
//!   canonical-labeling engines.
//! * [`Perm`] — dense vertex permutations with cycle-notation parsing and
//!   printing, composition, and inversion (the paper's `γ`), and
//!   [`SparsePerm`], the same permutation stored by its support only.
//! * [`Coloring`] — ordered partitions of the vertex set (the paper's `π`),
//!   with the finer-than relation, equitability checking, and projection.
//! * [`CanonForm`] — the totally ordered certificate `(G, π)^γ` represented
//!   as a color multiset plus a sorted relabeled edge list.
//! * [`io`] — plain-text edge-list reading and writing.
//! * [`graph6`] — the nauty ecosystem's compact ASCII format.
//! * [`named`] — constructors for well-known graphs with known automorphism
//!   groups, used pervasively in tests and examples.
//!
//! Vertices are `u32` indices in `0..n`. All graphs are simple (no
//! self-loops, no parallel edges) and undirected, matching the problem
//! definition in Section 2 of the paper.

#![warn(missing_docs)]

mod coloring;
mod fingerprint;
mod form;
mod graph;
pub mod graph6;
pub mod io;
pub mod named;
mod perm;

pub use coloring::Coloring;
pub use fingerprint::Fingerprint;
pub use form::{CanonForm, FormRef};
pub use graph::{Graph, GraphBuilder};
pub use perm::{Perm, SparsePerm};

/// Vertex identifier. Graphs in this workspace address vertices as dense
/// `u32` indices in `0..n`.
pub type V = u32;
