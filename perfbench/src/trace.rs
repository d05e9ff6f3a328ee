//! The traced replay: requests made in-process through the library's
//! public functions in the order the `dvicl` CLI makes them, with one span
//! per layer call.
//!
//! Requests arrive one per stdin line, each answered with `ok` once it is
//! done, so the caller can alternate them with the same untraced requests;
//! `quit` or end of input ends the replay. A line is `id cmd base spec`
//! (tab-separated): `canon`/`aut` take an edge-list file (a fresh session
//! per request, as a one-shot process has), and
//! `insert`/`lookup`/`groupsize` take an inline graph and share one warm
//! session and index, as `dvicl serve` does. Every request gets a root
//! span carrying its id; its children are flat spans of the layer calls.
//! Inside `core.build` the existing `dvicl-obs` phase totals and counters
//! are read around the call. Spans stay in memory and are written to
//! `OUT` (one JSON object per request) when the replay ends. Each tree is
//! checked with `verify_tree` after its request's root span has closed.

use crate::fnv1a;
use dvicl_canon::Config;
use dvicl_core::{aut, verify, AutoTree, Budget, DviclOptions, Session};
use dvicl_graph::{graph6, io, Coloring, Fingerprint, Graph};
use dvicl_index::FingerprintIndex;
use dvicl_obs::{Counter, JsonArr, JsonObj};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufRead, Write as _};
use std::path::Path;
use std::time::Instant;

/// Counters read around each build, by their `dvicl-obs` names.
const COUNTERS: [Counter; 5] = [
    Counter::RefineRounds,
    Counter::SearchNodes,
    Counter::PrunedOrbit,
    Counter::CacheClHits,
    Counter::CacheClMisses,
];

/// Phase totals read around each build.
const PHASES: [&str; 2] = ["core.leaf_ir", "refine.individualize"];

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// One request's spans, counters and answer.
struct Request<'a> {
    epoch: Instant,
    id: &'a str,
    cmd: &'a str,
    base: &'a str,
    start_ns: u64,
    spans: Vec<SpanRec>,
    phases: Vec<(&'static str, u64)>,
    counters: Vec<(Counter, u64)>,
    answer: String,
}

impl<'a> Request<'a> {
    fn new(epoch: Instant, id: &'a str, cmd: &'a str, base: &'a str) -> Self {
        let start_ns = epoch.elapsed().as_nanos() as u64;
        Request {
            epoch,
            id,
            cmd,
            base,
            start_ns,
            spans: Vec::new(),
            phases: Vec::new(),
            counters: Vec::new(),
            answer: String::new(),
        }
    }

    /// Runs `f` as one child span named after the layer call it makes.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = black_box(f());
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// `core.build`, with the phase totals and counter deltas it made.
    fn build(&mut self, session: &mut Session, g: &Graph) -> Result<AutoTree, String> {
        dvicl_obs::reset_phases();
        let before = dvicl_obs::snapshot();
        let tree = self
            .span("core.build", || {
                session.try_build(g, &Coloring::unit(g.n()), &Budget::unlimited())
            })
            .map_err(|e| e.to_string())?;
        let delta = dvicl_obs::snapshot().diff(&before);
        self.counters = COUNTERS.iter().map(|&c| (c, delta.get(c))).collect();
        let phases = dvicl_obs::phases();
        self.phases = PHASES
            .iter()
            .map(|&p| {
                (
                    p,
                    phases
                        .iter()
                        .find(|(l, _)| *l == p)
                        .map_or(0, |(_, s)| s.total_ns),
                )
            })
            .collect();
        Ok(tree)
    }

    /// The request's record; its root span ends at `end_ns`.
    fn finish(self, end_ns: u64, verified: Result<(), String>) -> String {
        let mut spans = JsonArr::new().push_obj(
            JsonObj::new()
                .str("name", "request")
                .u64("start_ns", self.start_ns)
                .u64("end_ns", end_ns),
        );
        for s in &self.spans {
            spans = spans.push_obj(
                JsonObj::new()
                    .str("name", s.name)
                    .str("parent", "request")
                    .u64("start_ns", s.start_ns)
                    .u64("end_ns", s.end_ns),
            );
        }
        let phases = self
            .phases
            .iter()
            .fold(JsonObj::new(), |o, (p, ns)| o.u64(p, *ns));
        let counters = self
            .counters
            .iter()
            .fold(JsonObj::new(), |o, (c, v)| o.u64(c.name(), *v));
        let obj = JsonObj::new()
            .str("id", self.id)
            .str("cmd", self.cmd)
            .str("base", self.base)
            .arr("spans", spans)
            .obj("phases", phases)
            .obj("counters", counters)
            .str("answer", &self.answer);
        match verified {
            Ok(()) => obj.null("error"),
            Err(e) => obj.str("error", &e),
        }
        .finish()
    }
}

/// The CLI's default build configuration: traces-like leaves, kernel
/// `auto`, one thread.
fn options() -> DviclOptions {
    DviclOptions {
        leaf_config: Config::traces_like(),
        threads: 1,
        ..DviclOptions::default()
    }
}

pub fn run(out: &Path) -> Result<(), String> {
    dvicl_obs::set_timing(true);
    let epoch = Instant::now();
    let mut service = Session::new(options());
    let mut index = FingerprintIndex::new();
    let mut records = Vec::new();
    let mut reply = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line == "quit" {
            break;
        }
        let fields: Vec<&str> = line.splitn(4, '\t').collect();
        let [id, cmd, base, spec] = fields[..] else {
            return Err(format!("bad plan line: {line:?}"));
        };
        let mut req = Request::new(epoch, id, cmd, base);
        let outcome = match cmd {
            "canon" | "aut" => one_shot(&mut req, spec),
            _ => service_request(&mut req, &mut service, &mut index, spec),
        };
        // The root span ends here; the witness check runs after it,
        // outside every timed span, and is reported with the record.
        let end_ns = epoch.elapsed().as_nanos() as u64;
        let verified =
            outcome.and_then(|(g, tree)| verify::verify_tree(&g, &tree).map_err(|e| e.to_string()));
        records.push(req.finish(end_ns, verified));
        writeln!(reply, "ok")
            .and_then(|()| reply.flush())
            .map_err(|e| e.to_string())?;
    }
    let mut text = String::new();
    for r in &records {
        let _ = writeln!(text, "{r}");
    }
    std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))
}

/// `dvicl canon FILE` / `dvicl aut FILE`: load, root refinement, build,
/// then the certificate or the group.
fn one_shot(req: &mut Request, path: &str) -> Result<(Graph, AutoTree), String> {
    let g = req.span("graph.load", || {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        io::read_edge_list(text.as_bytes())
            .map(|l| l.graph)
            .map_err(|e| e.to_string())
    })?;
    root_refine(req, &g)?;
    let tree = req.build(&mut Session::new(options()), &g)?;
    if req.cmd == "canon" {
        let certificate = req.span("graph.emit", || {
            let labeling = tree.canonical_labeling();
            let canonical = g.permuted(&labeling);
            let certificate = graph6::to_graph6(&canonical);
            black_box(labeling.to_string());
            certificate
        });
        req.answer = format!("{:016x}", fnv1a(certificate.as_bytes()));
    } else {
        let order = req.span("group.order", || aut::group_order(&tree).to_string());
        let orbits = req.span("core.orbits", || {
            let mut orbits = aut::orbits(&tree);
            (orbits.count(), orbits.count_singletons())
        });
        req.span("core.generators", || {
            let gens = aut::generators(&tree);
            gens.iter()
                .take(50)
                .map(|p| p.to_string().len())
                .sum::<usize>()
        });
        req.answer = format!("{order} {}", orbits.0);
    }
    Ok((g, tree))
}

/// One `dvicl serve` request against the warm session and index.
fn service_request(
    req: &mut Request,
    session: &mut Session,
    index: &mut FingerprintIndex,
    spec: &str,
) -> Result<(Graph, AutoTree), String> {
    let g = req.span("graph.parse", || parse_inline(spec))?;
    root_refine(req, &g)?;
    let tree = req.build(session, &g)?;
    let form = req.span("core.form", || tree.canonical_form().to_form());
    let fp = req.span("graph.fingerprint", || Fingerprint::of_form(&form));
    let before = dvicl_obs::snapshot();
    req.answer = match req.cmd {
        "insert" => {
            let out = req
                .span("index.insert", || index.insert(fp, form, false))
                .map_err(|e| e.to_string())?;
            let state = if out.fresh { "fresh" } else { "known" };
            format!(
                "insert: class={} members={} {state}",
                out.class, out.members
            )
        }
        "lookup" => match req.span("index.probe", || index.lookup(fp, &form)) {
            Some(class) => format!(
                "lookup: class={class} members={}",
                index.classes()[class].members
            ),
            None => "lookup: not-indexed".to_string(),
        },
        "groupsize" => match req.span("index.probe", || index.group_size(fp, &form)) {
            Some(members) => format!("groupsize: {members}"),
            None => "groupsize: not-indexed".to_string(),
        },
        other => return Err(format!("unknown request {other:?}")),
    };
    let collisions = dvicl_obs::snapshot()
        .diff(&before)
        .get(Counter::IndexCollisions);
    req.counters.push((Counter::IndexCollisions, collisions));
    Ok((g, tree))
}

/// `refine::try_refine` on the unit coloring: the root refinement the
/// build performs first, timed on its own.
fn root_refine(req: &mut Request, g: &Graph) -> Result<(), String> {
    req.span("refine.root", || {
        dvicl_refine::try_refine(g, &Coloring::unit(g.n()), &Budget::unlimited())
    })
    .map(|_| ())
    .map_err(|e| e.to_string())
}

/// The serve protocol's inline graph, parsed the way `dvicl serve` does:
/// `g6:` through graph6, `el:u-v,...` through the edge-list reader.
fn parse_inline(spec: &str) -> Result<Graph, String> {
    if let Some(g6) = spec.strip_prefix("g6:") {
        return graph6::from_graph6(g6).map_err(|e| e.to_string());
    }
    let el = spec
        .strip_prefix("el:")
        .ok_or_else(|| format!("bad graph spec {spec:?}"))?;
    let text: String = el
        .split(',')
        .map(|edge| edge.replacen('-', " ", 1))
        .collect::<Vec<_>>()
        .join("\n");
    io::read_edge_list(text.as_bytes())
        .map(|l| l.graph)
        .map_err(|e| e.to_string())
}
