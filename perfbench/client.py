"""One fib2d CLI request in a fresh interpreter, as the console script runs it.

    python3 perfbench/client.py REPORT TRACE ARGV...

Imports fib2d.cli, calls main(ARGV) and exits with its return value; an
uncaught exception prints its traceback and exits 1, as under the `fib2d`
script.  When the request ends it writes a JSON report to REPORT: the
CLOCK_MONOTONIC time at which fib2d.cli had been imported, the process's
peak RSS and, with TRACE=1, the spans and counts of tracer.Tracer.
"""

import sys
import time

import fib2d.cli

IMPORTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _peak_rss_kb() -> int:
    # VmHWM counts this program only.  getrusage's ru_maxrss also counts
    # the parent's memory, which the child shared between fork and exec.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def run() -> int:
    import json

    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        return fib2d.cli.main(argv)
    finally:
        report = {"imported_ns": IMPORTED_NS, "peak_rss_kb": _peak_rss_kb()}
        if tracer:
            report["trace"] = tracer.report()
        with open(report_path, "w", encoding="ascii") as fh:
            json.dump(report, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(run())
