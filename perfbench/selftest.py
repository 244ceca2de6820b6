"""Self-tests of the benchmark: the checker, the tracer and the reference.

    python3 perfbench/selftest.py

Run from the root of a checkout that holds src/fib2d.  Not collected by
the repository's pytest run, since the benchmark is a separate program.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _blocks_text(words) -> bytes:
    return "\n".join("".join(r + "\n" for r in w) for w in words).encode()


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
        cls.work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
        cls.runner = run.Runner(cls.work, run._now_ns() + 10**12)
        cls.factors = ref.factor_set(2, 3)
        cls.req = workloads.enum_request(lambda k, l: cls.factors,
                                         "dawg", 2, 3)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def judge(self, out, code=0, err=b"", timed_out=False):
        self.runner.verified.clear()
        return self.runner.judge(self.req, code, out, err, timed_out)

    def test_right_output_passes(self):
        self.assertIsNone(self.judge(_blocks_text(self.factors)))
        res = self.runner.run(self.req)
        self.assertIsNone(res.reason)
        self.assertGreater(res.setup_s, 0)
        self.assertLess(res.setup_s, res.wall_s)

    def test_corrupted_stdout_rejected(self):
        out = bytearray(_blocks_text(self.factors))
        out[0] = ord("a") if out[0] != ord("a") else ord("b")
        self.assertIsNotNone(self.judge(bytes(out)))
        self.assertIsNotNone(self.judge(_blocks_text(self.factors[1:])))
        self.assertIsNotNone(self.judge(b"not a grid"))

    def test_wrong_exit_code_rejected(self):
        self.assertIsNotNone(self.judge(_blocks_text(self.factors), code=1))

    def test_traceback_rejected(self):
        err = b"Traceback (most recent call last):\n  ...\nRecursionError: x\n"
        reason = self.judge(_blocks_text(self.factors), err=err)
        self.assertEqual(reason, "traceback: RecursionError: x")

    def test_timeout_rejected(self):
        self.assertIsNotNone(self.judge(_blocks_text(self.factors),
                                        timed_out=True))

    def test_failed_request_charged_the_limit(self):
        bad = workloads.Request("bad", "enum.dawg",
                                ("enum", "--k", "0", "--l", "1"),
                                ref.check_blocks(self.factors))
        res = self.runner.run(bad)
        self.assertIsNotNone(res.reason)
        self.assertEqual(res.wall_s, run.LIMIT_S)

    def test_locate_checker_rejects_a_dropped_occurrence(self):
        near = ref.grid_prefix(40, 40)
        w = tuple(r[3:6] for r in near[2:4])
        check = ref.check_locate(w, 30, 30, near)
        rho, gamma = ref.line_classes(w)
        xs = ref.positions(ref.fib_bits(40), rho, 30)
        ys = ref.positions(ref.fib_bits(40), gamma, 30)
        right = {"first": [xs[0], ys[0]],
                 "occurrences": [[x, y] for x in xs for y in ys],
                 "row_bound": 30, "col_bound": 30}
        self.assertIsNone(check(json.dumps(right).encode()))
        right["occurrences"].pop(1)
        self.assertIsNotNone(check(json.dumps(right).encode()))


class MetricsTest(unittest.TestCase):
    def test_requests_scaled_by_the_calibrations_around_them(self):
        def res(group, wall, setup):
            return run.Result("r", group, wall, setup, 1024, None)
        passes = [[res("gen", 1.0, 0.02), res("verify", 2.0, 0.04)]]
        # request 0 ran between 0.1 s and 0.3 s calibrations: scaled by 0.5
        e2e = run.end_to_end(passes, [[0.1, 0.3, 0.1]])
        self.assertAlmostEqual(e2e["wall_s"], 1.5)
        self.assertAlmostEqual(e2e["gen_s"], 0.5)
        self.assertAlmostEqual(e2e["setup_s"], 0.015)
        self.assertAlmostEqual(e2e["wall_raw_s"], 3.0)
        self.assertNotIn("locate_s", e2e)


class TracerTest(unittest.TestCase):
    def test_no_alias_left_unwrapped(self):
        import fib2d.cli  # noqa: F401  (loads every fib2d module)
        originals = [tracer._resolve(q) for q in tracer.TRACED]
        before = len(tracer.aliases(originals))
        tracer.Tracer().install()
        # the wrappers stay installed: nothing else here calls fib2d in-process
        self.assertEqual(tracer.aliases(originals), [])
        self.assertGreater(before, len(originals))
        for qualname in tracer.TRACED:
            fn = tracer._resolve(qualname)
            self.assertTrue(hasattr(fn, "__wrapped__"), qualname)
        import fib2d
        for mod, name in [("dawg", "fib_prefix"), ("frames", "subblock"),
                          ("locator", "frame_tl"), ("conjugacy", "fib_array")]:
            self.assertTrue(hasattr(getattr(getattr(fib2d, mod), name),
                                    "__wrapped__"), f"{mod}.{name}")
        self.assertTrue(hasattr(fib2d.cli._ENUM_METHODS["extend"],
                                "__wrapped__"))

    def _client(self, argv, trace, stdin=b""):
        work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
        try:
            report = os.path.join(work, "report.json")
            env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
            proc = subprocess.run(
                [sys.executable, run.CLIENT, report, str(trace), *argv],
                input=stdin, capture_output=True, env=env, cwd=ROOT,
                timeout=120)
            with open(report, encoding="ascii") as fh:
                return proc, json.load(fh)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_traced_stdout_is_byte_identical(self):
        os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
        block = b"dc\nba\n"
        cases = [(["enum", "--method", m, "--k", "3", "--l", "4"], b"")
                 for m in workloads.METHODS]
        cases += [
            (["enum", "--method", "dawg", "--k", "2", "--l", "2", "--json"],
             b""),
            (["verify", "--k", "4", "--l", "3"], b""),
            (["gen1d", "--len", "100"], b""),
            (["gen2d", "--rows", "30", "--cols", "20"], b""),
            (["dawg-dot", "--orientation", "product", "--max-len", "5"], b""),
            (["locate", "--file", "-", "--row-bound", "300",
              "--col-bound", "300"], block),
            (["locate", "--file", "-", "--row-bound", "9",
              "--col-bound", "9"], b"dd\ndd\nbb\nbb\n"),
        ]
        for argv, stdin in cases:
            plain, _ = self._client(argv, 0, stdin)
            traced, report = self._client(argv, 1, stdin)
            self.assertEqual(plain.stdout, traced.stdout, argv)
            self.assertEqual(plain.returncode, traced.returncode, argv)
            self.assertTrue(report["trace"]["spans"], argv)

    def test_traced_counts_go_through_the_method_table(self):
        _, report = self._client(["enum", "--method", "extend", "--k", "3",
                                  "--l", "3"], 1)
        t = report["trace"]
        calls = {}
        for name in t["spans"][0::4]:
            calls[t["names"][name]] = calls.get(t["names"][name], 0) + 1
        self.assertEqual(calls["frames.enumerate_extension"], 1)
        self.assertEqual(calls["frames.extend_diagonal"], 2)
        self.assertEqual(t["counts"]["frames.extend_diagonal"]["grids_out"],
                         3 * 3 + 4 * 4)


class ReferenceTest(unittest.TestCase):
    def test_substitution_is_the_product_of_the_line_words(self):
        g = ref.grid_prefix(150, 120)
        rows, cols = ref.fib_bits(150), ref.fib_bits(120)
        self.assertEqual(g, tuple("".join(ref.LETTER[r, c] for c in cols)
                                  for r in rows))

    def test_tall_harvest_mirrors_wide(self):
        swap = str.maketrans("bc", "cb")
        for k, l in [(1, 7), (2, 5), (3, 9)]:
            mirrored = sorted(tuple(r.translate(swap) for r in
                                    ref.transpose(w))
                              for w in ref.factor_set(k, l))
            self.assertEqual(mirrored, ref.factor_set(l, k))
            self.assertEqual(len(ref.factor_set(k, l)), (k + 1) * (l + 1))


class BenchmarkJsonTest(unittest.TestCase):
    def test_declared_metrics_are_reported(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        with open(path, encoding="ascii") as fh:
            spec = json.load(fh)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)


if __name__ == "__main__":
    unittest.main()
