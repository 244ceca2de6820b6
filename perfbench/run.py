"""fib2d CLI benchmark: closed loop, one client, one request at a time.

    python3 perfbench/run.py --workload square --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds src/fib2d.  Every request runs
in a fresh interpreter (perfbench/client.py) that imports fib2d.cli and
calls main(argv), so no in-process cache survives from one request to the
next, as in real CLI use.  The request list is repeated in passes as long
as --seconds have not passed when a pass ends (at least two passes, or one
untraced and one traced).  Every
request's exit code, stdout and stderr are checked against answers from
perfbench/reference.py, outside the timed region.

A failed request (wrong exit code, wrong stdout, a traceback on stderr, or
past the time limit) is charged the time limit in every timing metric, so
fixing a crash never reads as a slowdown.  Gated times are scaled to a
reference host speed by a calibration job (see CALIBRATION).

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced passes with passes whose requests run under
tracer.Tracer and reports the per-layer metrics, plus the ratio of traced
to untraced wall time.  Lines before the last describe the run for a
reader, with provenance; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLIENT = os.path.join(HERE, "client.py")
LEDGER = os.path.join(HERE, "ledger.json")

# Per-request time limit; the slowest request at the seed takes ~6 s.
LIMIT_S = 60.0
# No request runs past this point of a run, which must end within 180 s.
RUN_BUDGET_S = 165.0

TRACEBACK = b"Traceback (most recent call last)"

# The host's speed drifts by tens of percent within minutes, and all timing
# metrics drift with it.  Before and after every request of an untraced
# pass a fresh interpreter runs this fixed pure-Python job, which shares no
# code with fib2d; a request's times are scaled by CAL_REF_S over the mean
# of the two calibration times around it, so the gated times read as at
# the reference speed.
CALIBRATION = """
import argparse, json
s = "0"
while len(s) < 150000:
    s = s.translate({48: "01", 49: "0"})
seen = {s[i:i + 24] for i in range(len(s) - 24)}
rows = sorted(tuple(s[i:i + 6]) for i in range(0, 40000, 3))
json.dumps(rows)
"""
CAL_REF_S = 0.1

GROUPS = ("enum.dawg", "enum.extend", "enum.conjugate", "enum.prefix",
          "enum.oracle", "locate", "verify", "gen")

# end-to-end metric -> unit, as reported with --trace 0
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, better); see PER_LAYER_RATIOS for the ratios
PER_LAYER = {
    "cli.main.self_s": ("s", "lower"),
    "word1d.z_stream.calls": ("count", "lower"),
    "word1d.z_stream.self_s": ("s", "lower"),
    "word1d.z_stream.scanned": ("count", "lower"),
    "word1d.z_stream.yielded": ("count", "higher"),
    "word1d.z_stream.yield_ratio": ("ratio", "higher"),
    "word1d.occ1d.self_s": ("s", "lower"),
    "word1d.first_occ1d.self_s": ("s", "lower"),
    "word1d.shortest_truncated_index.calls": ("count", "lower"),
    "word1d.zeck_repr.cache_size": ("count", "lower"),
    "word1d.fib_word.cache_size": ("count", "lower"),
    "word1d.factors1d.self_s": ("s", "lower"),
    "word1d.right_extensions.calls": ("count", "lower"),
    "word1d.right_extensions.self_s": ("s", "lower"),
    "word1d.fib_prefix.calls": ("count", "lower"),
    "word1d.fib_prefix.self_s": ("s", "lower"),
    "word2d.mu_prefix.self_s": ("s", "lower"),
    "word2d.classify_lines.calls": ("count", "lower"),
    "word2d.classify_lines.self_s": ("s", "lower"),
    "word2d.subblock.calls": ("count", "lower"),
    "word2d.subblock.self_s": ("s", "lower"),
    "word2d.fib_array.self_s": ("s", "lower"),
    "word2d.to_text.self_s": ("s", "lower"),
    "word2d.parse_text.self_s": ("s", "lower"),
    "dawg.build_line_dawg.self_s": ("s", "lower"),
    "dawg.build_line_dawg.nodes": ("count", "lower"),
    "dawg.rooted_product.self_s": ("s", "lower"),
    "dawg.rooted_product.edges": ("count", "lower"),
    "dawg.subword_from_path.calls": ("count", "lower"),
    "dawg.subword_from_path.self_s": ("s", "lower"),
    "dawg.enumerate_dawg.self_s": ("s", "lower"),
    "dawg.export_dot.self_s": ("s", "lower"),
    "frames.extend_diagonal.calls": ("count", "lower"),
    "frames.extend_diagonal.self_s": ("s", "lower"),
    "frames.extend_diagonal.grids_out": ("count", "lower"),
    "frames.extensions_of.calls": ("count", "lower"),
    "frames.extensions_of.self_s": ("s", "lower"),
    "frames.fill_from_frame.calls": ("count", "lower"),
    "frames.fill_from_frame.self_s": ("s", "lower"),
    "frames.enumerate_extension.self_s": ("s", "lower"),
    "frames.enumerate_extension.useful_ratio": ("ratio", "higher"),
    "frames.frame_tl.calls": ("count", "lower"),
    "frames.frame_tl.self_s": ("s", "lower"),
    "conjugacy.rotate2d.calls": ("count", "lower"),
    "conjugacy.rotate2d.self_s": ("s", "lower"),
    "conjugacy.special_conjugate2d.self_s": ("s", "lower"),
    "conjugacy.enumerate_conjugation.self_s": ("s", "lower"),
    "conjugacy.enumerate_prefix_conjugates.self_s": ("s", "lower"),
    "locator.occ2d.self_s": ("s", "lower"),
    "locator.occ2d.pairs": ("count", "higher"),
    "locator.first_occ2d.self_s": ("s", "lower"),
    "oracle.oracle_subwords.self_s": ("s", "lower"),
    "oracle.oracle_subwords.windows": ("count", "lower"),
    "oracle.oracle_subwords.useful_ratio": ("ratio", "higher"),
    "oracle.verify.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# ratio metric -> (numerator, denominator), each (function, counter)
PER_LAYER_RATIOS = {
    "word1d.z_stream.yield_ratio": (("word1d.z_stream", "yielded"),
                                    ("word1d.z_stream", "scanned")),
    "frames.enumerate_extension.useful_ratio": (
        ("frames.enumerate_extension", "returned"),
        ("frames.extend_diagonal", "grids_out")),
    "oracle.oracle_subwords.useful_ratio": (
        ("oracle.oracle_subwords", "returned"),
        ("oracle.oracle_subwords", "windows")),
}


@dataclass
class Result:
    rid: str
    group: str
    wall_s: float           # charged LIMIT_S when the request failed
    setup_s: float          # spawn to fib2d.cli imported; LIMIT_S on failure
    peak_rss_kb: int
    reason: str | None      # None when the request was right
    answered: bool = False  # exited as expected, so reason is about stdout
    trace: dict | None = None


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns requests one at a time and judges their outcome."""

    def __init__(self, work: str, run_end_ns: int):
        self.work = work
        self.run_end_ns = run_end_ns
        # default interpreter settings, as a user's shell has them: no
        # inherited PYTHON* variable, so bytecode caches are written and
        # read and stdout is buffered
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.verified = {}          # rid -> sha256 of the stdout checked
        self.count = 0

    def run(self, req, trace: bool = False) -> Result:
        remaining_s = (self.run_end_ns - _now_ns()) / 1e9
        if remaining_s <= 0:
            return Result(req.rid, req.group, LIMIT_S, LIMIT_S, 0,
                          "not run: run time budget spent")
        self.count += 1
        base = os.path.join(self.work, f"{self.count}")
        argv = list(req.argv)
        if req.file is not None:
            with open(base + ".in", "wb") as fh:
                fh.write(req.file)
            argv = [base + ".in" if a == workloads.FILE else a for a in argv]
        with open(base + ".stdin", "wb") as fh:
            fh.write(req.stdin)
        code, wall_ns, setup_ns, rss, timed_out, report = self._spawn(
            base, argv, trace, min(LIMIT_S, remaining_s))
        with open(base + ".out", "rb") as fh:
            out = fh.read()
        with open(base + ".err", "rb") as fh:
            err = fh.read()
        answered = (not timed_out and code == req.exit_code
                    and TRACEBACK not in err)
        reason = self.judge(req, code, out, err, timed_out)
        for suffix in (".in", ".stdin", ".out", ".err", ".json"):
            if os.path.exists(base + suffix):
                os.remove(base + suffix)
        if reason:
            wall_ns = setup_ns = int(LIMIT_S * 1e9)
        return Result(req.rid, req.group, wall_ns / 1e9, setup_ns / 1e9, rss,
                      reason, answered, report.get("trace"))

    def _spawn(self, base, argv, trace, timeout_s):
        cmd = [sys.executable, CLIENT, base + ".json", "1" if trace else "0",
               *argv]
        with open(base + ".stdin", "rb") as fin, \
                open(base + ".out", "wb") as fout, \
                open(base + ".err", "wb") as ferr:
            start = _now_ns()
            proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=ferr,
                                    env=self.env, cwd=ROOT)
            try:
                timed_out = not _wait_exit(proc.pid, timeout_s)
                if timed_out:
                    proc.kill()
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = _now_ns()
        report = {}
        if os.path.exists(base + ".json"):
            with open(base + ".json", encoding="ascii") as fh:
                report = json.load(fh)
        setup = report.get("imported_ns", end) - start
        return (proc.returncode, end - start, setup,
                report.get("peak_rss_kb", 0), timed_out, report)

    def calibrate(self) -> float:
        """Seconds the calibration job takes in a fresh interpreter."""
        start = _now_ns()
        subprocess.run([sys.executable, "-c", CALIBRATION], env=self.env,
                       cwd=ROOT, check=True)
        return (_now_ns() - start) / 1e9

    def judge(self, req, code, out: bytes, err: bytes, timed_out: bool):
        """None when the request was right, else a one-line reason."""
        if timed_out:
            return "timed out"
        if TRACEBACK in err:
            last = err.strip().splitlines()[-1].decode("ascii", "replace")
            return f"traceback: {last}"
        if code != req.exit_code:
            return f"exit {code}, want {req.exit_code}"
        digest = hashlib.sha256(out).digest()
        if self.verified.get(req.rid) == digest:
            return None
        try:
            reason = req.check(out)
        except Exception as exc:  # malformed output of any kind is a failure
            reason = f"unreadable stdout: {exc!r}"
        if reason is None:
            self.verified[req.rid] = digest
        return reason


def _wait_exit(pid: int, timeout_s: float) -> bool:
    """Block until the process exits or the timeout passes; True on exit.

    Popen.wait with a timeout polls in sleeps of up to 50 ms, which would
    blur the measured time; a pidfd wakes up when the process exits.
    """
    fd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        return bool(poller.poll(int(timeout_s * 1000)))
    finally:
        os.close(fd)


# ---------------------------------------------------------------- metrics --

def end_to_end(passes, cals) -> dict:
    """End-to-end numbers of the untraced passes of one run, times at
    reference speed, and the raw times they were scaled from.

    Request i of a pass ran between calibrations i and i + 1; its times
    are scaled by CAL_REF_S over their mean.  Pass times are averaged, not
    medianed: a run makes two passes on a slow host and three on a fast
    one, and slowdowns only add time, so a median of three would read
    lower than the median (mean) of two.
    """
    scaled = [[(r, 2 * CAL_REF_S / (c[i] + c[i + 1])) for i, r in enumerate(p)]
              for p, c in zip(passes, cals)]

    def wall(select) -> float:
        return statistics.mean(sum(s * r.wall_s for r, s in p if select(r))
                               for p in scaled)

    groups = {g + "_s": wall(lambda r, g=g: r.group == g) for g in GROUPS
              if any(r.group == g for r in passes[0])}
    return {
        "setup_s": statistics.median(s * r.setup_s for p in scaled
                                     for r, s in p),
        "wall_s": wall(lambda r: True),
        "peak_rss_mb": max(r.peak_rss_kb for p in passes for r in p) / 1024,
        **groups,
        "setup_raw_s": statistics.median(r.setup_s for p in passes for r in p),
        "wall_raw_s": statistics.mean(sum(r.wall_s for r in p)
                                      for p in passes),
        "calibration_s": statistics.median(t for c in cals for t in c),
    }


def layer_pass(results) -> dict:
    """Per-layer numbers of one traced pass."""
    calls, self_ns = Counter(), Counter()
    counts = defaultdict(Counter)
    caches = Counter()
    for r in results:
        t = r.trace
        if not t:
            continue
        names, flat = t["names"], t["spans"]
        spans = list(zip(flat[0::4], flat[1::4], flat[2::4], flat[3::4]))
        own = [end - start for _, _, start, end in spans]
        for _, parent, start, end in spans:
            if parent >= 0:
                own[parent] -= end - start
        for (name, _, _, _), ns in zip(spans, own):
            calls[names[name]] += 1
            self_ns[names[name]] += ns
        for name, c in t["counts"].items():
            counts[name].update(c)
        for name, size in t["caches"].items():
            caches[name] = max(caches[name], size)
    out = {}
    for metric in PER_LAYER:
        fn, _, kind = metric.rpartition(".")
        if metric in PER_LAYER_RATIOS:
            (nf, nc), (df, dc) = PER_LAYER_RATIOS[metric]
            den = counts[df][dc]
            out[metric] = counts[nf][nc] / den if den else 0.0
        elif kind == "calls":
            out[metric] = calls[fn]
        elif kind == "self_s":
            out[metric] = self_ns[fn] / 1e9
        elif kind == "cache_size":
            out[metric] = caches[fn]
        elif fn != "trace":
            out[metric] = counts[fn][kind]
    return out


def _median_dicts(dicts) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# -------------------------------------------------------------- provenance --

def provenance(seed: int, digest: str) -> dict:
    return {
        "python": sys.version.split()[0],
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "requests_sha256": digest,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fib2d")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# -------------------------------------------------------------------- run --

def ledger_status(runner, entry, req) -> tuple[str, bool]:
    """(status, right) of one ledgered request; right is False only for a
    request that now exits 0 with a wrong answer."""
    res = runner.run(req)
    if res.reason is None:
        return "fixed: right answer", True
    if res.reason.startswith(f"traceback: {entry['error']}"):
        return (f"as ledgered: {entry['error']}, exit {entry['exit_code']}",
                True)
    return f"changed: {res.reason}", not res.answered


def measure(runner, reqs, seconds: float, trace: bool):
    """Run passes of the request list until `seconds` have passed, at least
    two untraced passes or one untraced and one traced; returns the
    untraced passes, their calibration times and the traced passes."""
    start = time.monotonic()
    untraced, cals, traced = [], [], []
    while True:
        untraced.append([])
        cals.append([runner.calibrate()])
        for r in reqs:
            untraced[-1].append(runner.run(r))
            cals[-1].append(runner.calibrate())
        if trace:
            traced.append([runner.run(r, trace=True) for r in reqs])
        enough = trace or len(untraced) > 1
        if enough and time.monotonic() - start >= seconds:
            return untraced, cals, traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fib2d", "cli.py")):
        print(f"perfbench: no src/fib2d under {ROOT}", file=sys.stderr)
        return 2
    # a terminated run unwinds, killing and reaping the running request
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_end_ns = _now_ns() + int(RUN_BUDGET_S * 1e9)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fib2d.errors import EXIT_CODES
    exit_codes = {cls.__name__: code for cls, code in EXIT_CODES.items()}

    reqs = workloads.WORKLOADS[args.workload](random.Random(args.seed),
                                              exit_codes)
    with open(LEDGER, encoding="ascii") as fh:
        probes = workloads.ledger_probes(json.load(fh), args.workload)
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        runner = Runner(work, run_end_ns)
        # untimed: writes bytecode caches, as an installed package has them
        runner.run(workloads.Request("warm-up", "gen", ("gen1d", "--len", "1"),
                                     lambda out: None))
        ledger = [(entry, *ledger_status(runner, entry, req))
                  for entry, req in probes]
        untraced, cals, traced = measure(runner, reqs, args.seconds,
                                         bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for p in untraced + traced for r in p]
    failed = [r for r in results if r.reason]
    e2e = end_to_end(untraced, cals)
    e2e["fail_ratio"] = len(failed) / len(results)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": len(untraced),
        "requests_per_pass": len(reqs),
        "setup_samples": sum(len(p) for p in untraced),
        "pass_wall_s": [sum(r.wall_s for r in p) for p in untraced],
        "pass_calibration_s": cals,
        "request_wall_s": {r.rid: [q.wall_s for p in untraced for q in p
                                   if q.rid == r.rid] for r in reqs},
        "metrics": e2e,
        "failures": sorted({f"{r.rid}: {r.reason}" for r in failed}),
        "ledger": [{"argv": e["argv"], "status": s} for e, s, _ in ledger],
        "provenance": provenance(args.seed,
                                 workloads.request_digest(reqs)),
    }
    if traced:
        layers = _median_dicts([layer_pass(p) for p in traced])
        layers["trace.overhead_ratio"] = (
            statistics.mean(sum(r.wall_s for r in p) for p in traced)
            / e2e["wall_raw_s"])
        report["per_layer"] = layers
    _print_report(report)

    correct = not failed and all(right for _, _, right in ledger)
    if args.trace:
        metrics = {m: {"value": report["per_layer"][m],
                       "unit": PER_LAYER[m][0]} for m in PER_LAYER}
    else:
        metrics = {m: {"value": e2e[m], "unit": u}
                   for m, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


UNITS = {"fail_ratio": "ratio", "peak_rss_mb": "MB"}  # others are in s


def _print_report(report) -> None:
    print(f"perfbench {report['workload']}: {report['passes']} pass(es) of "
          f"{report['requests_per_pass']} requests, trace={report['trace']}")
    for name, value in report["metrics"].items():
        unit = UNITS.get(name, "s")
        print(f"  {name:<24} {value:12.6f} {unit}")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    for entry in report["ledger"]:
        print(f"  ledger {' '.join(entry['argv'])}: {entry['status']}")
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:<44} {value:14.6f} {PER_LAYER[name][0]}")
    print("report " + json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
