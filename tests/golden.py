"""The command line's bytes as digests: the request catalog that
test_golden.py pins against tables.GOLDEN.

A fixed catalog of requests runs through cli.main in-process.  For each
request the record is its argv, its stdin, its exit code, the sha256 of
its stdout and its stderr text; each group of requests is summed up by
the sha256 of its records, so a failure names its group.  The module
imports neither pytest nor anything outside the standard library and the
package, so any interpreter can run it:

    PYTHONPATH=src python -S tests/golden.py

prints the digest of every group as one JSON object, beside the names of
the typing and __future__ modules if either was loaded.

To see which request of a group moved, print records(group) on both
trees and compare.
"""

import hashlib
import io
import json
import sys

from fib2d import cli, oracle

SIZES = [(k, l) for k in range(13) for l in range(13)]
FACTOR = "dcd\nbab\ndcd\n"


def _enum():
    return [(("enum", "--method", method, "--k", str(k), "--l", str(l))
             + json, "") for method in sorted(oracle.METHODS)
            for json in ((), ("--json",)) for k, l in SIZES]


def _verify():
    return [(("verify", "--k", str(k), "--l", str(l)) + json, "")
            for json in ((), ("--json",)) for k, l in SIZES]


def _gen():
    return [*((("gen1d", "--alphabet", alphabet, "--len", str(n)), "")
              for alphabet in ("ba", "dc")
              for n in (0, 1, 4096, 4097, 65537)),
            *((("gen2d", "--rows", str(r), "--cols", str(c)), "")
              for r, c in ((1, 1), (3, 5), (13, 21), (100, 7), (0, 3)))]


def _locate():
    bounds = (("30", "40"), ("0", "40"), ("30", "0"), ("-1", "40"))
    return [(("locate", "--file", "-", "--row-bound", x, "--col-bound", y),
             text) for text in (FACTOR, "cc\naa\n", "dc\nb\n")
            for x, y in bounds]


def _conjugates():
    return [(("conjugates", "--m", str(m), "--n", str(n)) + special, "")
            for special in ((), ("--special",))
            for m, n in ((0, 0), (1, 3), (3, 3), (4, 2), (5, 5))]


def _dawg_dot(lengths):
    return [(("dawg-dot", "--orientation", orientation, "--max-len", str(n)),
             "") for orientation in ("rows", "cols", "product")
            for n in lengths]


def _usage():
    return [(("-h",), ""), (("enum", "--k", "2"), ""),
            (("enum", "--method", "nope", "--k", "1", "--l", "1"), "")]


CATALOG = {"enum": _enum, "verify": _verify, "gen": _gen, "locate": _locate,
           "conjugates": _conjugates,
           "dawg-dot": lambda: _dawg_dot((*range(1, 14), 40)),
           "dawg-dot-large": lambda: _dawg_dot((55, 89, 100)), "usage": _usage}


class HashingStdout:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, s):
        self.sha.update(s.encode())
        return len(s)

    def flush(self):
        pass


def run(argv, stdin: str):
    """[argv, stdin, exit code, stdout sha256, stderr] of one request."""
    out, err = HashingStdout(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return [list(argv), stdin, code, out.sha.hexdigest(), err.getvalue()]


def records(group: str) -> list:
    """The records of every request of a group, in catalog order."""
    return [run(argv, stdin) for argv, stdin in CATALOG[group]()]


def digest(group: str) -> str:
    return hashlib.sha256(json.dumps(records(group)).encode()).hexdigest()


if __name__ == "__main__":
    json.dump({"digests": {group: digest(group) for group in CATALOG},
               "loaded": sorted({"typing", "__future__"} & set(sys.modules))},
              sys.stdout)
