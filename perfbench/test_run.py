#!/usr/bin/env python3
"""Self-tests for the benchmark's own code: statistics, answer checks,
failure accounting and trace attribution.

    python3 perfbench/test_run.py
"""

import os
import statistics
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def child(code):
    """argv of a Python child running `code`."""
    return [sys.executable, "-c", code]


class Statistics(unittest.TestCase):
    def test_percentile_small_counts(self):
        self.assertEqual(run.percentile([5.0], 50), 5.0)
        self.assertEqual(run.percentile([5.0], 99.9), 5.0)
        self.assertEqual(run.percentile([2.0, 1.0], 50), 1.5)
        self.assertEqual(run.percentile([4.0, 1.0, 3.0, 2.0], 75), 3.25)
        self.assertEqual(run.percentile([4.0, 1.0, 3.0, 2.0], 100), 4.0)
        self.assertEqual(run.percentile([4.0, 1.0, 3.0, 2.0], 0), 1.0)

    def test_samples_beyond(self):
        self.assertEqual(run.samples_beyond(0, 50), 0)
        self.assertEqual(run.samples_beyond(1, 50), 0)
        self.assertEqual(run.samples_beyond(4, 100), 0)
        self.assertEqual(run.samples_beyond(44, 75), 11)
        self.assertEqual(run.samples_beyond(200, 95), 10)
        self.assertEqual(run.samples_beyond(1001, 99), 10)

    def test_tail_selection(self):
        for n in (0, 1, 10, 11, 19):
            self.assertIsNone(run.tail_percentile(n), n)
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(37), 50.0)
        self.assertEqual(run.tail_percentile(38), 75.0)
        self.assertEqual(run.tail_percentile(101), 90.0)
        self.assertEqual(run.tail_percentile(1001), 99.0)
        self.assertEqual(run.tail_percentile(100001), 99.0)

    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(run.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = run.quartiles(values)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / q2)
        self.assertEqual(run.spread([2.0] * 10), 0.0)


class FailureAccounting(unittest.TestCase):
    EXPECTED = {"g": {"order": "120", "orbits": 1}}

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.err = os.path.join(self.tmp.name, "stderr.txt")

    def tearDown(self):
        self.tmp.cleanup()

    def oneshot(self, code, deadline_s=10.0):
        return run.run_oneshot(child(code), deadline_s, self.err)

    def test_each_failure_is_counted_once(self):
        tally, certs = run.Tally(), run.CertCheck()
        aut_ok = "print('|Aut(G)| = 120'); print('orbits: 1 (0 singletons)')"
        cases = [
            ("canon", "g", "print('certificate: AAA')", None),
            ("canon", "g", "import sys; sys.exit(3)", "exit 3"),
            ("canon", "g", "import time; time.sleep(30)", "missed deadline"),
            ("canon", "g", "print('certificate: BBB')", "certificate differs across relabelings"),
            ("aut", "g", aut_ok, None),
            ("aut", "g", "print('|Aut(G)| = 60'); print('orbits: 1 (0 singletons)')", "wrong |Aut|"),
        ]
        for cmd, base, code, want in cases:
            out = self.oneshot(code, deadline_s=1.0)
            reason = run.oneshot_failure(cmd, base, out, certs, self.EXPECTED)
            self.assertEqual(reason, want, code)
            tally.record(reason)
        tally.record(run.corpus_failure("error: budget exceeded", "lookup: not-indexed"))
        self.assertEqual(tally.attempted, 7)
        self.assertEqual(tally.failed, 5)
        self.assertEqual(sorted(tally.reasons.values()), [1] * 5)
        self.assertAlmostEqual(tally.failed_frac, 5 / 7)

    def test_deadline_kills_the_child(self):
        t0 = time.perf_counter()
        out = self.oneshot("import time; time.sleep(30)", deadline_s=0.5)
        self.assertTrue(out.timed_out)
        self.assertLess(time.perf_counter() - t0, 5.0)

    def test_oneshot_reads_all_output(self):
        out = self.oneshot("import sys; sys.stdout.write('x' * 3_000_000)")
        self.assertEqual((out.exit_code, len(out.stdout)), (0, 3_000_000))
        self.assertGreater(out.rss_kb, 0)

    def test_server_deadline_and_reply(self):
        echo = run.Server(child("import sys\nfor l in sys.stdin:\n    print('ok', flush=True)"), self.err)
        self.assertEqual(echo.request(b"lookup g6:A_\n", 5.0)[0], "ok")
        self.assertGreater(echo.close(), 0)
        mute = run.Server(child("import sys, time\nfor l in sys.stdin:\n    time.sleep(30)"), self.err)
        reply, wall, _ = mute.request(b"lookup g6:A_\n", 0.5)
        self.assertIsNone(reply)
        self.assertEqual(run.corpus_failure(reply, "lookup: not-indexed"), "missed deadline")
        mute.close(deadline_s=0.5)

    def test_certificates_must_differ_between_base_graphs(self):
        certs = run.CertCheck()
        self.assertIsNone(certs.check("a", b"certificate: X"))
        self.assertIsNone(certs.check("a", b"certificate: X"))
        self.assertEqual(certs.check("b", b"certificate: X"), "certificate shared by two base graphs")
        self.assertIsNone(certs.check("c", b"certificate: Y"))

    def test_answer_parsers(self):
        self.assertEqual(run.certificate_line(b"n: 3  m: 2\ncertificate (g6): Bw\nlabeling: ()\n"),
                         b"certificate (g6): Bw")
        self.assertIsNone(run.certificate_line(b"n: 3\n"))
        self.assertEqual(run.aut_answer(b"|Aut(G)| = 48\norbits: 2 (0 singletons)\n"), ("48", 2))
        self.assertIsNone(run.aut_answer(b"|Aut(G)| = 48\n"))


class HostScaling(unittest.TestCase):
    def test_times_scale_by_the_neighbouring_probes(self):
        host = run.HostSpeed()
        # Three slices: two samples, then one failed request, then one.
        host.samples = [(0.1, 0, "a"), (0.2, 0, "b"), (None, 1, "a"), (0.3, 2, "a")]
        host.walls = [0.3, 0.1, 0.3]
        ref = run.REF_PROBE_S
        host.probes = [ref, 2 * ref, 4 * ref]
        # Slice k uses the median of probes k-1..k+1 that exist.
        rounded = lambda xs: [round(x, 9) for x in xs]
        self.assertEqual(rounded(host.scale(k) for k in range(3)), rounded([2 / 3, 0.5, 1 / 3]))
        self.assertEqual(rounded(host.scaled()), rounded([0.2 / 3, 0.4 / 3, 0.1]))
        self.assertAlmostEqual(host.scaled_wall(), 0.2 + 0.05 + 0.1)
        self.assertEqual({k: rounded(v) for k, v in host.by_label().items()},
                         {"a": rounded([0.2 / 3, 0.1]), "b": rounded([0.4 / 3])})


class CorpusModel(unittest.TestCase):
    def test_model_follows_the_index_protocol(self):
        m = run.CorpusModel()
        self.assertEqual(m.expect("lookup", "m1"), "lookup: not-indexed")
        self.assertEqual(m.expect("insert", "m1"), "insert: class=0 members=1 fresh")
        self.assertEqual(m.expect("insert", "m1"), "insert: class=0 members=2 known")
        self.assertEqual(m.expect("groupsize", "f0"), "groupsize: not-indexed")
        self.assertEqual(m.expect("insert", "f0"), "insert: class=1 members=1 fresh")
        self.assertEqual(m.expect("lookup", "m1"), "lookup: class=0 members=2")
        self.assertEqual(m.expect("groupsize", "f0"), "groupsize: 1")
        self.assertEqual(run.corpus_failure("groupsize: 2", "groupsize: 1"), "wrong answer")
        self.assertIsNone(run.corpus_failure("groupsize: 1", "groupsize: 1"))


class TraceAttribution(unittest.TestCase):
    @staticmethod
    def record(cmd="canon", spans=None, phases=None):
        spans = spans if spans is not None else [
            ("graph.load", 0, 10), ("refine.root", 10, 15), ("core.build", 15, 75),
            ("graph.emit", 75, 95)]
        return {
            "cmd": cmd,
            "spans": [{"name": "request", "start_ns": 0, "end_ns": 100}]
            + [{"name": n, "start_ns": a, "end_ns": b} for n, a, b in spans],
            "phases": phases or {"core.leaf_ir": 30, "refine.individualize": 10},
            "counters": {"search_nodes": 4},
        }

    def test_layers_split_the_build(self):
        layers, spans, wall = run.layer_times(self.record())
        self.assertEqual(wall, 100)
        self.assertEqual(layers, {"graph": 30, "refine": 15, "canon": 20, "core": 25,
                                  "group": 0, "index": 0})
        # The refine.root probe is not counted twice: layers sum to the
        # layer calls the CLI makes (load + build + emit).
        self.assertEqual(sum(layers.values()), 10 + 60 + 20)
        self.assertIsNone(run.coverage_failure(self.record()))

    def test_coverage_names_missing_spans(self):
        rec = self.record(spans=[("graph.load", 0, 10), ("core.build", 15, 75)])
        self.assertEqual(run.coverage_failure(rec), "missing spans refine.root,graph.emit")

    def test_per_layer_metrics_cover_every_name(self):
        recs = [self.record(), self.record()]
        m = run.per_layer_metrics(recs, [1e-7, 1e-7], [100, 300], passes=2)
        self.assertEqual([name for name, _ in run.PER_LAYER], list(m))
        self.assertEqual(m["canon.search_nodes"][0], 4)
        self.assertEqual(m["cli.stdout_bytes"][0], 200)
        self.assertAlmostEqual(m["cli.unattributed_frac"][0], 1 - 180 / 200)
        self.assertAlmostEqual(m["canon.ns_per_node"][0], (60 - 5) / 4)


if __name__ == "__main__":
    unittest.main()
