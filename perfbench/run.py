#!/usr/bin/env python3
"""The dvicl benchmark.

    python3 perfbench/run.py --workload social|search|group|corpus|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the release `dvicl` binary and
the `perfbench` helper (perfbench/Cargo.toml) into $CARGO_TARGET_DIR
(default `.bench_build`), writes seeded inputs under `.bench_work/`, and
removes them again when it ends.

--trace 0 measures `dvicl` as a black box: one child at a time, closed
loop, one client, default configuration, all on one core. Every request runs under a
deadline and every answer is checked. It prints the end-to-end metrics,
with times scaled to a reference host speed (see HostSpeed).

--trace 1 makes every request twice, alternately: untraced by `dvicl`, then
in-process by `perfbench trace` (one span per layer call). It prints the
per-layer metrics and reports no end-to-end timings.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import fcntl
import hashlib
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.getcwd()
WORK_ROOT = os.path.join(ROOT, ".bench_work")
HERE = os.path.dirname(os.path.abspath(__file__))

SOCIAL = [
    "Amazon", "BerkStan", "Epinions", "Gnutella", "Google", "LiveJournal",
    "NotreDame", "Pokec", "Slashdot0811", "Slashdot0902", "Stanford",
    "WikiTalk", "wikivote", "Youtube", "Orkut", "BuzzNet", "Delicious",
    "Digg", "Flixster", "Foursquare", "Friendster", "Lastfm",
]


@dataclass
class Workload:
    """One workload: its inputs, request mix and reporting choices."""
    name: str
    # One-shot workloads: dvicl-data base graphs, relabelings of each, and
    # per base graph the (command, relabeling offset) pairs of one pass.
    # Pass p of a run uses relabeling (offset + p) % relabelings.
    datasets: list = field(default_factory=list)
    relabelings: int = 1
    requests: list = field(default_factory=list)
    # Extra `canon` requests after the measured passes, on relabelings the
    # pass did not use, so certificates are compared across relabelings.
    cert_checks: int = 0
    # The declared tail percentile (see README.md for the sample counts).
    tail_pct: float = 75.0
    # Per-request deadline, seconds.
    deadline_s: float = 60.0


WORKLOADS = {
    "social": Workload("social", SOCIAL, 2, [("canon", 0), ("aut", 1)],
                       cert_checks=3, tail_pct=75.0, deadline_s=60.0),
    "search": Workload("search", ["cfi-200", "mz-aug-50", "had-256"], 32,
                       [("canon", 0)], tail_pct=75.0, deadline_s=30.0),
    "group": Workload("group", ["mz-aug-20", "ag2-23", "had-64", "grid-w-3-10"],
                      96, [("aut", 0)], tail_pct=95.0, deadline_s=30.0),
    "corpus": Workload("corpus", tail_pct=99.0, deadline_s=10.0),
}

SETUP_REPEATS = 3
# Deadline for one traced in-process request.
TRACE_DEADLINE_S = 60.0
# Corpus requests per batch when the traced run alternates the two sides.
CORPUS_BATCH = 200
# Per-layer metrics of the traced run: (name, unit).
PER_LAYER = [
    ("graph.load_ms", "ms"), ("graph.emit_ms", "ms"), ("graph.parse_us", "us"),
    ("graph.fingerprint_us", "us"), ("refine.root_ms", "ms"),
    ("refine.rounds", "count"), ("refine.individualize_ms", "ms"),
    ("canon.search_nodes", "count"), ("canon.pruned_orbit", "count"),
    ("canon.ns_per_node", "ns"), ("core.build_ms", "ms"),
    ("core.leaf_ir_ms", "ms"), ("core.divide_combine_ms", "ms"),
    ("core.leaf_ir_calls", "count"), ("core.memo_hit_ratio", "ratio"),
    ("core.generators_ms", "ms"), ("core.orbits_ms", "ms"),
    ("group.order_ms", "ms"), ("index.insert_us", "us"),
    ("index.probe_us", "us"), ("index.collisions", "count"),
    ("cli.stdout_bytes", "bytes"), ("cli.unattributed_frac", "ratio"),
]
LAYERS = ["graph", "refine", "canon", "core", "group", "index"]
# The child spans each request kind must carry in the traced run.
REQUIRED_SPANS = {
    "canon": ["graph.load", "refine.root", "core.build", "graph.emit"],
    "aut": ["graph.load", "refine.root", "core.build", "group.order",
            "core.orbits", "core.generators"],
    "insert": ["graph.parse", "refine.root", "core.build", "core.form",
               "graph.fingerprint", "index.insert"],
    "lookup": ["graph.parse", "refine.root", "core.build", "core.form",
               "graph.fingerprint", "index.probe"],
}
REQUIRED_SPANS["groupsize"] = REQUIRED_SPANS["lookup"]


# --- statistics --------------------------------------------------------------

def percentile(values, pct):
    """Linear-interpolated percentile (numpy's default) of a non-empty list."""
    xs = sorted(values)
    rank = pct / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def samples_beyond(n, pct):
    """How many of n samples lie strictly above the pct-th percentile."""
    return n - 1 - int(pct / 100.0 * (n - 1)) if n else 0


def tail_percentile(n, ladder=(50.0, 75.0, 90.0, 95.0, 99.0), beyond=10):
    """The highest ladder percentile with at least `beyond` samples above it,
    or None when n samples allow none."""
    ok = [p for p in ladder if samples_beyond(n, p) >= beyond]
    return max(ok) if ok else None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


# --- answer checks -----------------------------------------------------------

class Tally:
    """Attempted and failed requests; each request is recorded exactly once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def record(self, reason):
        """Counts one request; `reason` is None for success."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return reason is None

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


class CertCheck:
    """Certificates must agree across relabelings of one base graph and
    differ between base graphs. Compares digests of whatever the certificate
    is, never its format."""

    def __init__(self):
        self.by_base = {}
        self.by_cert = {}

    def check(self, base, cert):
        digest = hashlib.sha256(cert).hexdigest()
        known = self.by_base.setdefault(base, digest)
        if known != digest:
            return "certificate differs across relabelings"
        owner = self.by_cert.setdefault(digest, base)
        if owner != base:
            return "certificate shared by two base graphs"
        return None


def certificate_line(stdout):
    """The certificate line of `dvicl canon` output, or None."""
    for line in stdout.split(b"\n"):
        if line.startswith(b"certificate"):
            return line
    return None


AUT_ORDER = re.compile(rb"^\|Aut\(G\)\| = (\S+)", re.M)
AUT_ORBITS = re.compile(rb"^orbits: (\d+)", re.M)


def aut_answer(stdout):
    """(|Aut| as text, orbit count) from `dvicl aut` output, or None."""
    order, orbits = AUT_ORDER.search(stdout), AUT_ORBITS.search(stdout)
    if not order or not orbits:
        return None
    return order.group(1).decode(), int(orbits.group(1))


@dataclass
class Outcome:
    """One finished (or killed) child process."""
    exit_code: int
    timed_out: bool
    stdout: bytes
    wall_s: float
    rss_kb: int


def oneshot_failure(cmd, base, out, certs, expected):
    """The reason a one-shot request failed, or None. The first failed
    check decides, so a request is never counted twice."""
    if out.timed_out:
        return "missed deadline"
    if out.exit_code != 0:
        return "exit %s" % out.exit_code
    if cmd == "canon":
        cert = certificate_line(out.stdout)
        return "no certificate" if cert is None else certs.check(base, cert)
    answer = aut_answer(out.stdout)
    if answer is None:
        return "unparsable aut output"
    want = expected[base]
    if answer[0] != want["order"]:
        return "wrong |Aut|"
    if answer[1] != want["orbits"]:
        return "wrong orbit count"
    return None


class CorpusModel:
    """The index state a correct service must be in, derived from the class
    keys the generator wrote; the program under test plays no part."""

    def __init__(self):
        self.classes = {}  # class key -> [class id, members]

    def expect(self, op, key):
        entry = self.classes.get(key)
        if op == "insert":
            if entry is None:
                entry = self.classes[key] = [len(self.classes), 0]
            entry[1] += 1
            state = "fresh" if entry[1] == 1 else "known"
            return "insert: class=%d members=%d %s" % (entry[0], entry[1], state)
        if entry is None:
            return "%s: not-indexed" % op
        if op == "lookup":
            return "lookup: class=%d members=%d" % (entry[0], entry[1])
        return "groupsize: %d" % entry[1]


def corpus_failure(reply, want):
    """The reason a corpus request failed, or None."""
    if reply is None:
        return "missed deadline"
    if reply.startswith("error:"):
        return "error reply"
    return None if reply == want else "wrong answer"


# --- processes ---------------------------------------------------------------

def _grow_pipe(fd):
    try:
        fcntl.fcntl(fd, 1031, 1 << 20)  # F_SETPIPE_SZ: fewer wake-ups per MB
    except OSError:
        pass


def run_oneshot(argv, deadline_s, stderr_path):
    """Spawns argv, reads its stdout, and reaps it; kills it at the deadline.
    Wall time runs from spawn to exit; RSS is the child's peak."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
    pidfd = os.pidfd_open(proc.pid)
    out_fd = proc.stdout.fileno()
    _grow_pipe(out_fd)
    chunks, reading, timed_out = [], True, False
    deadline = t0 + deadline_s
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                timed_out = True
                break
            ready, _, _ = select.select([out_fd, pidfd] if reading else [pidfd], [], [], remaining)
            if out_fd in ready:
                data = os.read(out_fd, 1 << 20)
                if data:
                    chunks.append(data)
                else:
                    reading = False
            elif pidfd in ready and not reading:
                break
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        os.close(pidfd)
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, timed_out, b"".join(chunks), wall, usage.ru_maxrss)


class Server:
    """A long-lived `dvicl serve` child spoken to one line at a time."""

    def __init__(self, argv, stderr_path):
        with open(stderr_path, "wb") as err:
            self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=err,
                                         cwd=ROOT, bufsize=0)
        self.out_fd = self.proc.stdout.fileno()
        self.in_fd = self.proc.stdin.fileno()
        self.buf = b""
        self.dead = False

    def request(self, line, deadline_s):
        """Sends one request line; returns (reply or None, wall seconds,
        reply bytes). None means the deadline passed or the server died."""
        t0 = time.perf_counter()
        try:
            os.write(self.in_fd, line)
        except OSError:
            self.dead = True
            return None, time.perf_counter() - t0, 0
        deadline = t0 + deadline_s
        while b"\n" not in self.buf:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([self.out_fd], [], [], remaining)[0]:
                self.dead = True
                return None, time.perf_counter() - t0, 0
            data = os.read(self.out_fd, 1 << 16)
            if not data:
                self.dead = True
                return None, time.perf_counter() - t0, 0
            self.buf += data
        reply, self.buf = self.buf.split(b"\n", 1)
        return reply.decode(), time.perf_counter() - t0, len(reply) + 1

    def close(self, deadline_s=10.0):
        """Quits the server and reaps it; returns its peak RSS in KB."""
        try:
            os.write(self.in_fd, b"quit\n")
        except OSError:
            pass
        self.proc.stdin.close()
        pidfd = os.pidfd_open(self.proc.pid)
        try:
            if not select.select([pidfd], [], [], deadline_s)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            os.close(pidfd)
            self.proc.stdout.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss


# --- build and inputs --------------------------------------------------------

def build():
    """Builds `dvicl` and `perfbench` (release); returns their paths."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for args in (["-p", "dvicl-cli"], ["--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                              cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise SystemExit("error: cargo build %s failed" % " ".join(args))
    # Write back the build's dirty pages now, not while requests are timed.
    os.sync()
    return os.path.join(target, "release", "dvicl"), os.path.join(target, "release", "perfbench")


def run_checked(argv):
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if done.returncode != 0:
        raise SystemExit("error: %s failed: %s" % (argv[1], done.stderr.decode(errors="replace")))


def read_tsv(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


def layer_times(rec):
    """(layer -> self ns, span durations by name, traced wall ns) of one
    traced request. Inside core.build, refine owns the root refinement (as
    timed by the refine.root probe) plus individualization, canon owns the
    rest of the leaf IR search, and core owns what is left: divide/combine.
    The probe itself is tracing cost, so the layers sum to no more than the
    request's traced wall."""
    spans = rec["spans"]
    wall = spans[0]["end_ns"] - spans[0]["start_ns"]
    d = {}
    for s in spans[1:]:
        d[s["name"]] = d.get(s["name"], 0) + s["end_ns"] - s["start_ns"]
    ph = rec["phases"]
    leaf, indiv = ph.get("core.leaf_ir", 0), ph.get("refine.individualize", 0)
    build, root = d.get("core.build", 0), d.get("refine.root", 0)
    root_in_build = min(root, build - leaf)
    layers = {
        "graph": d.get("graph.load", 0) + d.get("graph.emit", 0)
                 + d.get("graph.parse", 0) + d.get("graph.fingerprint", 0),
        "refine": root_in_build + indiv,
        "canon": leaf - indiv,
        "core": build - root_in_build - leaf + d.get("core.form", 0)
                + d.get("core.orbits", 0) + d.get("core.generators", 0),
        "group": d.get("group.order", 0),
        "index": d.get("index.insert", 0) + d.get("index.probe", 0),
    }
    return layers, d, wall


def coverage_failure(rec):
    """Why a traced request fails the coverage check, or None: it must carry
    every span its request kind names, and its layers must fit in its wall."""
    layers, spans, wall = layer_times(rec)
    missing = [s for s in REQUIRED_SPANS[rec["cmd"]] if s not in spans]
    if missing:
        return "missing spans " + ",".join(missing)
    if sum(layers.values()) > wall:
        return "layer self times exceed the traced wall"
    return None


def per_layer_metrics(records, untraced_wall, stdout_bytes, passes):
    """Every per-layer metric from a traced replay of `passes` passes. Times
    are medians per request over the requests that make the call (0 where
    none does); counts are totals per pass."""
    rows = [layer_times(r) for r in records]

    def med(values, scale):
        return statistics.median(values) / scale if values else 0.0

    def spans_of(name):
        return [d[name] for _, d, _ in rows if name in d]

    def total(key):
        return sum(r["counters"].get(key, 0) for r in records) / passes

    # (build, root refinement, leaf IR, individualization, search nodes) per build.
    builds = [(d["core.build"], d["refine.root"], r["phases"].get("core.leaf_ir", 0),
               r["phases"].get("refine.individualize", 0), r["counters"].get("search_nodes", 0))
              for r, (_, d, _) in zip(records, rows) if "core.build" in d]
    nodes = total("search_nodes")
    searched = sum(max(b - root, 0) for b, root, _, _, n in builds if n)
    hits, misses = total("cache_cl_hits"), total("cache_cl_misses")
    layered = sum(sum(layers.values()) for layers, _, _ in rows)
    m = {
        "graph.load_ms": med(spans_of("graph.load"), 1e6),
        "graph.emit_ms": med(spans_of("graph.emit"), 1e6),
        "graph.parse_us": med(spans_of("graph.parse"), 1e3),
        "graph.fingerprint_us": med(spans_of("graph.fingerprint"), 1e3),
        "refine.root_ms": med(spans_of("refine.root"), 1e6),
        "refine.rounds": total("refine_rounds"),
        "refine.individualize_ms": med([indiv for _, _, _, indiv, _ in builds], 1e6),
        "canon.search_nodes": nodes,
        "canon.pruned_orbit": total("pruned_orbit"),
        "canon.ns_per_node": searched / (nodes * passes) if nodes else 0.0,
        "core.build_ms": med([b for b, _, _, _, _ in builds], 1e6),
        "core.leaf_ir_ms": med([leaf for _, _, leaf, _, _ in builds], 1e6),
        "core.divide_combine_ms": med([b - min(root, b - leaf) - leaf
                                       for b, root, leaf, _, _ in builds], 1e6),
        "core.leaf_ir_calls": misses,
        "core.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.generators_ms": med(spans_of("core.generators"), 1e6),
        "core.orbits_ms": med(spans_of("core.orbits"), 1e6),
        "group.order_ms": med(spans_of("group.order"), 1e6),
        "index.insert_us": med(spans_of("index.insert"), 1e3),
        "index.probe_us": med(spans_of("index.probe"), 1e3),
        "index.collisions": total("index_collisions"),
        "cli.stdout_bytes": float(statistics.median(stdout_bytes)) if stdout_bytes else 0.0,
        "cli.unattributed_frac": 1.0 - layered / (sum(untraced_wall) * 1e9),
    }
    return {name: (m[name], unit) for name, unit in PER_LAYER}


# --- host speed --------------------------------------------------------------

# The probe's duration on the reference host. Scaled times read as if every
# request had run at the speed at which one probe takes this long.
REF_PROBE_S = 0.017
# Requests between two probes take at least this long.
SLICE_S = 0.25


def probe():
    """A fixed CPU-bound loop in this process; its duration tracks the speed
    the host gives the benchmark right now, independent of dvicl's code."""
    t0 = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """The run is cut into slices of at least SLICE_S of requests, each
    followed by a probe. Every time in a slice is scaled by
    REF_PROBE_S / probe, which removes the host's speed drift (other tenants
    of a shared machine) while keeping dvicl's own cost: the probe does not
    run dvicl code. Probe time is outside the slices."""

    def __init__(self):
        self.samples = []  # (seconds or None when the request failed, slice, label)
        self.probes, self.walls = [], []
        self.start = time.perf_counter()

    def sample(self, seconds, label=None):
        self.samples.append((seconds, len(self.probes), label))
        if time.perf_counter() - self.start >= SLICE_S:
            self.close_slice()

    def close_slice(self):
        self.walls.append(time.perf_counter() - self.start)
        self.probes.append(probe())
        self.start = time.perf_counter()

    def finish(self):
        if self.samples and self.samples[-1][1] == len(self.probes):
            self.close_slice()

    def scale(self, k):
        # The median of the probes on either side damps one probe's noise.
        return REF_PROBE_S / statistics.median(self.probes[max(k - 1, 0):k + 2])

    def scaled(self):
        return [s * self.scale(k) for s, k, _ in self.samples if s is not None]

    def scaled_wall(self):
        return sum(w * self.scale(k) for k, w in enumerate(self.walls))

    def by_label(self):
        out = {}
        for s, k, label in self.samples:
            if s is not None and label:
                out.setdefault(label, []).append(s * self.scale(k))
        return out


class Bench:
    """One workload at one seed: set-up, requests, checks and metrics."""

    def __init__(self, wl, seed, seconds, dvicl, perfbench):
        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.dvicl, self.perfbench = dvicl, perfbench
        self.rng = random.Random(seed)
        self.work = os.path.join(WORK_ROOT, "%s-%d" % (wl.name, os.getpid()))
        self.stderr_path = os.path.join(self.work, "stderr.txt")
        self.tally = Tally()
        self.server = None
        with open(os.path.join(HERE, "expected.json")) as f:
            self.expected = json.load(f)["aut"]

    def setup(self):
        """Generates, relabels and writes the inputs; for corpus, also
        starts `dvicl serve` and waits until it answers."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        if self.wl.name == "corpus":
            run_checked([self.perfbench, "corpus", self.work, str(self.seed)])
            with open(os.path.join(self.work, "corpus.txt")) as f:
                specs = [line.split(" ", 1) for line in f.read().splitlines()]
            keys = read_tsv(os.path.join(self.work, "corpus_keys.tsv"))
            # (op, inline graph, class key, phase) per request line.
            self.corpus = [(op, spec, k[1] + k[2], k[3]) for (op, spec), k in zip(specs, keys)]
            self.server = Server([self.dvicl, "serve"], self.stderr_path)
            # Readiness probe: a graph smaller than every corpus class, so
            # it leaves the index as it was.
            reply, _, _ = self.server.request(b"lookup el:0-1\n", self.wl.deadline_s)
            if reply != "lookup: not-indexed":
                raise SystemExit("error: dvicl serve is not answering: %r" % reply)
        else:
            run_checked([self.perfbench, "gen", self.work, str(self.seed),
                         str(self.wl.relabelings)] + self.wl.datasets)
            self.files = {(base, int(r)): path for base, r, path, _, _ in
                          read_tsv(os.path.join(self.work, "manifest.tsv"))}

    def close(self):
        """Stops the server, if one runs; returns its peak RSS in KB."""
        rss = self.server.close() if self.server else 0
        self.server = None
        return rss

    def plan(self, p):
        """The one-shot requests of pass p, in seeded order."""
        wl = self.wl
        reqs = [(cmd, base, (off + p) % wl.relabelings)
                for base in wl.datasets for cmd, off in wl.requests]
        self.rng.shuffle(reqs)
        return reqs

    def oneshot(self, cmd, base, r, certs):
        out = run_oneshot([self.dvicl, cmd, self.files[(base, r)]],
                          self.wl.deadline_s, self.stderr_path)
        ok = self.tally.record(oneshot_failure(cmd, base, out, certs, self.expected))
        return out, ok

    def corpus_request(self, i, model):
        op, spec, key, _ = self.corpus[i]
        reply, wall, nbytes = self.server.request(("%s %s\n" % (op, spec)).encode(),
                                                  self.wl.deadline_s)
        ok = self.tally.record(corpus_failure(reply, model.expect(op, key)))
        return ok, wall, nbytes

    def measure(self):
        """The untraced run: end-to-end metrics, scaled to the reference host
        speed (see HostSpeed)."""
        setups = []
        for _ in range(SETUP_REPEATS):
            self.close()
            t0 = time.perf_counter()
            self.setup()
            setups.append((time.perf_counter() - t0) * REF_PROBE_S / probe())
        os.sync()  # the inputs' dirty pages, likewise
        host, rss, rounds = HostSpeed(), [], 0
        t0 = time.perf_counter()
        if self.wl.name == "corpus":
            # The insert phase once, then the mixed phase over and over.
            model, i = CorpusModel(), 0
            restart = next(j for j, req in enumerate(self.corpus) if req[3] == "mix")
            while time.perf_counter() - t0 < self.seconds and not self.server.dead:
                ok, wall, _ = self.corpus_request(i, model)
                host.sample(wall if ok else None)
                i += 1
                if i == len(self.corpus):
                    i, rounds = restart, rounds + 1
            host.finish()
            rss.append(self.close())
        else:
            # Whole passes, as many as fit in the run.
            certs, last = CertCheck(), 0.0
            while rounds == 0 or time.perf_counter() - t0 + last <= self.seconds:
                start = time.perf_counter()
                for cmd, base, r in self.plan(rounds):
                    out, ok = self.oneshot(cmd, base, r, certs)
                    rss.append(out.rss_kb)
                    host.sample(out.wall_s if ok else None, "%s %s" % (cmd, base))
                last, rounds = time.perf_counter() - start, rounds + 1
            host.finish()
            # Outside the measured phase: certificates of relabelings the
            # passes did not use, compared with the ones they did.
            for base in self.rng.sample(self.wl.datasets, self.wl.cert_checks):
                self.oneshot("canon", base, rounds % self.wl.relabelings, certs)
        lat, raw = host.scaled(), [s for s, _, _ in host.samples if s is not None]
        n, pct = len(lat), self.wl.tail_pct
        metrics = {
            "latency_ms.p50": (percentile(lat, 50) * 1e3 if n else 0.0, "ms"),
            "latency_ms.tail": (percentile(lat, pct) * 1e3 if n else 0.0, "ms"),
            "throughput_rps": (n / host.scaled_wall(), "req/s"),
            "peak_rss_mb": (max(rss) / 1024.0, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        valid = tail_percentile(n)
        report = [
            "%s: %d requests timed (%d full %s); tail = p%g with %d samples beyond it%s"
            % (self.wl.name, n, rounds, "cycles" if self.wl.name == "corpus" else "passes", pct,
               samples_beyond(n, pct), "" if samples_beyond(n, pct) >= 10 else
               " (fewer than 10; the highest percentile with 10 is %s)" % valid),
            "host speed: %d probes, median %.2f ms (reference %.2f ms); unscaled p50 %.3f ms, "
            "p%g %.3f ms, %.4g req/s" % (
                len(host.probes), statistics.median(host.probes) * 1e3, REF_PROBE_S * 1e3,
                percentile(raw, 50) * 1e3 if n else 0.0, pct,
                percentile(raw, pct) * 1e3 if n else 0.0, n / sum(host.walls)),
            "failed_frac %.4f ratio (%d of %d attempted)%s" % (
                self.tally.failed_frac, self.tally.failed, self.tally.attempted,
                " " + json.dumps(self.tally.reasons) if self.tally.reasons else ""),
        ]
        report += ["  %-24s %10.1f ms median of %d (scaled)" % (k, statistics.median(v) * 1e3, len(v))
                   for k, v in sorted(host.by_label().items())]
        return metrics, report

    def traced(self):
        """The traced run: each request is made untraced by `dvicl` and then
        replayed in-process by `perfbench trace`, alternately, so both see
        the same host speed; per-layer metrics only."""
        self.setup()
        spans_path = os.path.join(self.work, "spans.jsonl")
        tracer = Server([self.perfbench, "trace", spans_path],
                        os.path.join(self.work, "trace_stderr.txt"))
        walls, stdout_bytes, passes = [], [], 1

        def replay(i, cmd, base, spec):
            line = "%d\t%s\t%s\t%s\n" % (i, cmd, base, spec)
            if tracer.request(line.encode(), TRACE_DEADLINE_S)[0] != "ok":
                raise SystemExit("error: perfbench trace stopped at request %d" % i)

        if self.wl.name == "corpus":
            # Batches rather than single requests, so that neither process
            # finds its caches cold on every request.
            model = CorpusModel()
            for lo in range(0, len(self.corpus), CORPUS_BATCH):
                batch = range(lo, min(lo + CORPUS_BATCH, len(self.corpus)))
                for i in batch:
                    _, wall, nbytes = self.corpus_request(i, model)
                    walls.append(wall)
                    stdout_bytes.append(nbytes)
                for i in batch:
                    op, spec, key, _ = self.corpus[i]
                    replay(i, op, key, spec)
            self.close()
        else:
            # Whole passes, as many as fit in the run.
            certs, t0, last, passes = CertCheck(), time.perf_counter(), 0.0, 0
            while passes == 0 or time.perf_counter() - t0 + last <= self.seconds:
                start = time.perf_counter()
                for cmd, base, r in self.plan(passes):
                    out, _ = self.oneshot(cmd, base, r, certs)
                    replay(len(walls), cmd, base, self.files[(base, r)])
                    walls.append(out.wall_s)
                    stdout_bytes.append(len(out.stdout))
                last, passes = time.perf_counter() - start, passes + 1
        tracer.close()
        if tracer.proc.returncode != 0:
            raise SystemExit("error: perfbench trace exited with %s" % tracer.proc.returncode)
        with open(spans_path) as f:
            records = [json.loads(line) for line in f]
        # Answer checks on the traced replay, then the coverage check.
        certs, model, coverage = CertCheck(), CorpusModel(), Tally()
        for rec in records:
            cmd, base, answer = rec["cmd"], rec["base"], rec["answer"]
            if rec["error"] is not None:
                reason = "traced request failed: " + rec["error"]
            elif cmd == "canon":
                reason = certs.check(base, answer.encode())
            elif cmd == "aut":
                order, orbits = answer.split()
                want = self.expected[base]
                reason = None if (order, int(orbits)) == (want["order"], want["orbits"]) else "wrong |Aut| or orbits"
            else:
                reason = corpus_failure(answer, model.expect(cmd, base))
            self.tally.record(reason)
            coverage.record(coverage_failure(rec))
        metrics = per_layer_metrics(records, walls, stdout_bytes, passes)
        self_ns = {layer: sum(layer_times(r)[0][layer] for r in records) for layer in LAYERS}
        traced_ns = sum(layer_times(r)[2] for r in records)
        layered = sum(self_ns.values())
        report = ["%s: traced %d requests in %d passes; layer self time:" % (
            self.wl.name, len(records), passes)]
        for layer in LAYERS:
            report.append("  %-8s %12.3f ms  %6.1f%%" % (layer, self_ns[layer] / 1e6,
                                                        100.0 * self_ns[layer] / traced_ns))
        report.append("  sum of layers %.3f ms; traced wall %.3f ms; untraced wall %.3f ms"
                      % (layered / 1e6, traced_ns / 1e6, sum(walls) * 1e3))
        report.append("coverage: %d of %d requests fail%s" % (
            coverage.failed, coverage.attempted,
            " " + json.dumps(coverage.reasons) if coverage.reasons else ""))
        report.append("failed_frac %.4f ratio (%d of %d attempted)%s" % (
            self.tally.failed_frac, self.tally.failed, self.tally.attempted,
            " " + json.dumps(self.tally.reasons) if self.tally.reasons else ""))
        return metrics, report, coverage.failed == 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    dvicl, perfbench = build()
    # One core for this process and every child it starts, so the host-speed
    # probe measures the core the requests run on. A closed loop with one
    # client never needs two.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        bench = Bench(WORKLOADS[name], args.seed, args.seconds, dvicl, perfbench)
        try:
            if args.trace:
                metrics, report, covered = bench.traced()
            else:
                (metrics, report), covered = bench.measure(), True
        finally:
            bench.close()
            shutil.rmtree(bench.work, ignore_errors=True)
        print("\n".join(report))
        for metric, (value, unit) in metrics.items():
            print("  %-26s %14.6g %s" % (metric, value, unit))
            key = metric if len(names) == 1 else "%s/%s" % (name, metric)
            result["metrics"][key] = {"value": value, "unit": unit}
        result["correct"] &= covered and bench.tally.failed == 0
        result["attempted"] += bench.tally.attempted
        result["failed"] += bench.tally.failed
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
