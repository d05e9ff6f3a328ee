//! Input generation. Every file is a pure function of the seed.
//!
//! * [`oneshot`] writes seeded relabelings of named `dvicl-data` graphs
//!   as edge-list files, plus `manifest.tsv` (`name relabeling path n m`).
//! * [`corpus`] writes a `dvicl serve` request stream (`corpus.txt`) and,
//!   line for line, the isomorphism class each request's graph belongs to
//!   (`corpus_keys.tsv`: `op kind index phase`, kind `m` member, `f`
//!   fresh, `x` miss; phase `load` for the opening insert phase, `mix`
//!   after it). Classes are kept only when an isomorphism invariant
//!   computed here — not by the program under test — differs from every
//!   earlier class, so two classes are never isomorphic and the expected
//!   answer to every request follows from the keys alone.

use crate::{fnv1a, mix, relabeled, Rng};
use dvicl_data::bench_graphs::{self, cfi, cubic_circulant};
use dvicl_graph::{graph6, io, named, Graph, V};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;

/// Member classes: inserted by the opening insert phase.
const MEMBERS: usize = 300;
/// Fresh classes: first inserted during the mixed phase.
const FRESH: usize = 200;
/// Miss classes: never inserted, so lookups of them find nothing.
const MISSES: usize = 200;
/// Requests in the mixed phase after the insert phase.
const MIXED: usize = 4000;

pub fn oneshot(dir: &Path, seed: u64, relabelings: usize, names: &[String]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut manifest = String::new();
    for name in names {
        let g = base_graph(name).ok_or_else(|| format!("unknown dataset {name:?}"))?;
        for r in 0..relabelings {
            // The stream depends on the name, not the list position, so a
            // graph's relabelings do not change when the list does.
            let mut rng = Rng::new(mix(seed, mix(fnv1a(name.as_bytes()), r as u64)));
            let h = relabeled(&g, &mut rng);
            let path = dir.join(format!("{name}.{r}.el"));
            io::write_edge_list_file(&path, &h).map_err(|e| format!("{}: {e}", path.display()))?;
            let _ = writeln!(
                manifest,
                "{name}\t{r}\t{}\t{}\t{}",
                path.display(),
                h.n(),
                h.m()
            );
        }
    }
    write(&dir.join("manifest.tsv"), &manifest)
}

/// A `dvicl-data` suite graph by name, or a smaller member of a benchmark
/// family named the way the suite names its own: `mz-aug-M`, `ag2-Q`,
/// `had-N`, `grid-w-K-D`.
fn base_graph(name: &str) -> Option<Graph> {
    if let Some(d) = dvicl_data::social_suite()
        .into_iter()
        .chain(dvicl_data::benchmark_suite())
        .find(|d| d.name == name)
    {
        return Some((d.build)());
    }
    let param = |prefix: &str| {
        name.strip_prefix(prefix)
            .and_then(|p| p.parse::<usize>().ok())
    };
    if let Some(m) = param("mz-aug-").filter(|&m| m >= 3) {
        return Some(bench_graphs::mz_aug(m));
    }
    if let Some(q) = param("ag2-").filter(|&q| q >= 2 && (2..q).all(|d| q % d != 0)) {
        return Some(bench_graphs::ag2(q));
    }
    if let Some(n) = param("had-").filter(|n| n.is_power_of_two()) {
        return Some(bench_graphs::hadamard(n));
    }
    let (k, d) = name.strip_prefix("grid-w-")?.split_once('-')?;
    let (k, d) = (k.parse::<usize>().ok()?, d.parse::<usize>().ok()?);
    (k >= 1 && d >= 3).then(|| bench_graphs::wrapped_grid(&vec![d; k]))
}

pub fn corpus(dir: &Path, seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut rng = Rng::new(mix(seed, fnv1a(b"corpus")));
    let classes = distinct_classes(&mut rng, MEMBERS + FRESH + MISSES);
    let (mut lines, mut keys) = (String::new(), String::new());
    let mut request = |rng: &mut Rng, phase: &str, op: &str, kind: char, i: usize| {
        let base = match kind {
            'm' => &classes[i],
            'f' => &classes[MEMBERS + i],
            _ => &classes[MEMBERS + FRESH + i],
        };
        let g = relabeled(base, rng);
        let _ = writeln!(lines, "{op} {}", inline_spec(&g, rng.below(2) == 0));
        let _ = writeln!(keys, "{op}\t{kind}\t{i}\t{phase}");
    };
    // Insert phase: every member class once, every third one twice.
    for i in 0..MEMBERS {
        request(&mut rng, "load", "insert", 'm', i);
    }
    for i in (0..MEMBERS).step_by(3) {
        request(&mut rng, "load", "insert", 'm', i);
    }
    // Mixed phase: 35% lookup, 35% groupsize, 30% insert. Probes hit a
    // member or fresh class three times in four; inserts add a known
    // member three times in five and a fresh class otherwise.
    for _ in 0..MIXED {
        let roll = rng.below(100);
        let op = if roll < 35 {
            "lookup"
        } else if roll < 70 {
            "groupsize"
        } else {
            "insert"
        };
        let (kind, i) = if op == "insert" {
            if rng.below(5) < 3 {
                ('m', rng.below(MEMBERS))
            } else {
                ('f', rng.below(FRESH))
            }
        } else if rng.below(4) == 0 {
            ('x', rng.below(MISSES))
        } else if rng.below(MEMBERS + FRESH) < MEMBERS {
            ('m', rng.below(MEMBERS))
        } else {
            ('f', rng.below(FRESH))
        };
        request(&mut rng, "mix", op, kind, i);
    }
    write(&dir.join("corpus.txt"), &lines)?;
    write(&dir.join("corpus_keys.tsv"), &keys)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The serve protocol's inline graph: graph6 or an `el:u-v,...` edge list.
fn inline_spec(g: &Graph, as_graph6: bool) -> String {
    if as_graph6 {
        return format!("g6:{}", graph6::to_graph6(g));
    }
    let edges: Vec<String> = g.edges().map(|(u, v)| format!("{u}-{v}")).collect();
    format!("el:{}", edges.join(","))
}

/// `count` small graphs (n 16–200, no isolated vertex, since `el:` specs
/// cannot carry one) with pairwise distinct [`invariant`]s. Family and
/// size follow a fixed stratified sequence and only the graphs are
/// random, so the cost mix of the corpus hardly depends on the seed.
fn distinct_classes(rng: &mut Rng, count: usize) -> Vec<Graph> {
    let mut seen = HashSet::new();
    let mut classes = Vec::with_capacity(count);
    let mut slot = 0;
    while classes.len() < count {
        let g = candidate(rng, slot % 5, 16 + slot * 71 % 185);
        if (0..g.n() as V).all(|v| g.degree(v) > 0) && seen.insert(invariant(&g)) {
            classes.push(g);
        }
        slot += 1;
    }
    classes
}

/// A random graph of one corpus family on about `n` vertices: trees,
/// cycle unions, circulants, small CFI graphs (n = 10k, k even) and
/// sparse random graphs.
fn candidate(rng: &mut Rng, family: usize, n: usize) -> Graph {
    match family {
        0 => {
            // Random labelled tree from a Prüfer sequence.
            let seq: Vec<usize> = (0..n - 2).map(|_| rng.below(n)).collect();
            let mut degree = vec![1usize; n];
            for &s in &seq {
                degree[s] += 1;
            }
            let mut edges = Vec::with_capacity(n - 1);
            for &s in &seq {
                let leaf = (0..n)
                    .find(|&v| degree[v] == 1)
                    .expect("a Prüfer step always has a leaf");
                edges.push((leaf as V, s as V));
                degree[leaf] -= 1;
                degree[s] -= 1;
            }
            let rest: Vec<usize> = (0..n).filter(|&v| degree[v] == 1).collect();
            edges.push((rest[0] as V, rest[1] as V));
            Graph::from_edges(n, &edges)
        }
        1 => {
            // Disjoint union of cycles of length >= 3 covering n vertices;
            // each cut leaves at least 3 vertices for the next cycle.
            let mut g = Graph::empty(0);
            let mut left = n;
            while left > 0 {
                let len = if left < 6 {
                    left
                } else {
                    3 + rng.below(left - 5)
                };
                g = g.disjoint_union(&named::cycle(len));
                left -= len;
            }
            g
        }
        2 => {
            let jumps: Vec<usize> = (0..1 + rng.below(3))
                .map(|_| 1 + rng.below(n / 2))
                .collect();
            named::circulant(n, &jumps)
        }
        3 => cfi(&cubic_circulant((n / 20).max(3) * 2), rng.below(2) == 0),
        _ => {
            let m = n + rng.below(n / 2 + 1);
            let mut edges = HashSet::new();
            while edges.len() < m {
                let (u, v) = (rng.below(n) as V, rng.below(n) as V);
                if u != v {
                    edges.insert((u.min(v), u.max(v)));
                }
            }
            Graph::from_edges(n, &edges.into_iter().collect::<Vec<_>>())
        }
    }
}

/// An isomorphism invariant: the sorted component sizes plus four rounds
/// of colour refinement seeded with (degree, triangles). Equal graphs up
/// to relabeling always agree; a difference proves non-isomorphism.
fn invariant(g: &Graph) -> u64 {
    let n = g.n();
    let mut color: Vec<u64> = (0..n as V)
        .map(|v| {
            let nb = g.neighbors(v);
            let triangles = nb
                .iter()
                .map(|&w| {
                    g.neighbors(w)
                        .iter()
                        .filter(|x| nb.binary_search(x).is_ok())
                        .count()
                })
                .sum::<usize>();
            mix(nb.len() as u64, triangles as u64)
        })
        .collect();
    for _ in 0..4 {
        color = (0..n as V)
            .map(|v| {
                let mut nb: Vec<u64> = g.neighbors(v).iter().map(|&w| color[w as usize]).collect();
                nb.sort_unstable();
                nb.iter().fold(mix(color[v as usize], 1), |h, &c| mix(h, c))
            })
            .collect();
    }
    color.sort_unstable();
    let mut sizes = component_sizes(g);
    sizes.sort_unstable();
    let h = sizes
        .iter()
        .fold(mix(n as u64, g.m() as u64), |h, &s| mix(h, s as u64));
    color.iter().fold(h, |h, &c| mix(h, c))
}

fn component_sizes(g: &Graph) -> Vec<usize> {
    let mut seen = vec![false; g.n()];
    let mut sizes = Vec::new();
    for s in 0..g.n() {
        if seen[s] {
            continue;
        }
        seen[s] = true;
        let mut stack = vec![s as V];
        let mut size = 0;
        while let Some(v) = stack.pop() {
            size += 1;
            for &w in g.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        sizes.push(size);
    }
    sizes
}
