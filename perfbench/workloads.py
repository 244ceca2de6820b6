"""The benchmark's request lists, built from a seed, with expected answers.

Each workload is a list of fib2d CLI requests.  The seed picks the order
of the requests and, on `locate`, the factors; everything the program is
checked against comes from `reference`, never from fib2d itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

# Placeholder in argv for the path of the request's input file.
FILE = "{file}"

METHODS = ("conjugate", "dawg", "extend", "oracle", "prefix")

# the error the non-factor request must exit with, by its code in
# fib2d.errors.EXIT_CODES
NOT_A_FACTOR = "NotAFactor"


@dataclass(frozen=True)
class Request:
    rid: str
    group: str                      # metric group, e.g. "enum.dawg", "locate"
    argv: tuple[str, ...]
    check: Callable[[bytes], str | None] = field(compare=False)
    exit_code: int = 0
    stdin: bytes = b""
    file: bytes | None = None       # written to a file named by FILE in argv

    def digest_fields(self) -> list:
        return [self.rid, list(self.argv), self.exit_code,
                hashlib.sha256(self.stdin).hexdigest(),
                hashlib.sha256(self.file or b"").hexdigest()]


def request_digest(requests) -> str:
    blob = json.dumps([r.digest_fields() for r in requests]).encode()
    return hashlib.sha256(blob).hexdigest()


class _Factors:
    """Reference factor sets, computed once per shape."""

    def __init__(self):
        self._sets = {}

    def __call__(self, k: int, l: int):
        if (k, l) not in self._sets:
            self._sets[k, l] = ref.factor_set(k, l)
        return self._sets[k, l]


def enum_request(factors, method: str, k: int, l: int, *,
                 as_json: bool = False) -> Request:
    argv = ["enum", "--method", method, "--k", str(k), "--l", str(l)]
    check = ref.check_blocks(factors(k, l))
    if as_json:
        argv.append("--json")
        check = ref.check_json_blocks(factors(k, l))
    suffix = "-json" if as_json else ""
    return Request(f"enum-{method}-{k}x{l}{suffix}", f"enum.{method}",
                   tuple(argv), check)


def square(rng: random.Random, exit_codes) -> list[Request]:
    factors = _Factors()
    reqs = [enum_request(factors, m, k, k)
            for k in (10, 40) for m in METHODS]
    reqs.append(enum_request(factors, "conjugate", 40, 40, as_json=True))
    for k in (10, 30):
        reqs.append(Request(
            f"verify-{k}x{k}", "verify",
            ("verify", "--k", str(k), "--l", str(k)),
            ref.check_verify_report(k, k, len(factors(k, k)))))
    grid = ref.grid_prefix(2000, 2000)
    reqs.append(Request(
        "gen2d-2000x2000", "gen",
        ("gen2d", "--rows", "2000", "--cols", "2000"),
        ref.check_text("".join(r + "\n" for r in grid))))
    reqs.append(Request(
        "gen1d-1000000", "gen", ("gen1d", "--len", "1000000"),
        ref.check_text(ref.fib_line("ba", 10**6) + "\n")))
    reqs.append(Request(
        "dawg-dot-product-40", "gen",
        ("dawg-dot", "--orientation", "product", "--max-len", "40"),
        ref.check_line_dawg_dot(40)))
    rng.shuffle(reqs)
    return reqs


# (method, k, l) on thin and transposed shapes.  dawg runs at L = 500: at
# L = 1100 it crashes at the seed commit (see ledger.json), and the
# ledgered requests run as probes outside the timed list.
SKINNY = [("dawg", 1, 500), ("dawg", 500, 1),
          ("conjugate", 1, 1100), ("conjugate", 1100, 1),
          ("oracle", 1, 1100), ("oracle", 1100, 1),
          ("prefix", 2, 1100), ("prefix", 1100, 2),
          ("extend", 1, 40), ("extend", 40, 1)]


def skinny(rng: random.Random, exit_codes) -> list[Request]:
    factors = _Factors()
    reqs = [enum_request(factors, m, k, l) for m, k, l in SKINNY]
    rng.shuffle(reqs)
    return reqs


def ledger_probes(ledger, workload: str) -> list[tuple[dict, Request]]:
    """The ledgered requests of a workload, each with its correct answer."""
    factors = _Factors()
    out = []
    for entry in ledger:
        if entry["workload"] != workload:
            continue
        argv = entry["argv"]
        if argv[0] != "enum":
            raise ValueError(f"ledger entry {argv} is not an enum request")
        opts = dict(zip(argv[1::2], argv[2::2]))
        out.append((entry, enum_request(factors, opts["--method"],
                                        int(opts["--k"]), int(opts["--l"]))))
    return out


# (k, l, row_bound, col_bound, how the factor is passed) per locate request
LOCATE = [(200, 200, 10**5, 10**5, "file"),
          (200, 200, 10**5, 10**5, "stdin"),
          (144, 233, 2 * 10**5, 5 * 10**4, "file"),
          (2, 3, 1000, 1000, "file"),
          (3, 5, 1000, 1000, "file")]
# seeded cuts start below this offset on both axes
CUT_RANGE = 600


def locate(rng: random.Random, exit_codes) -> list[Request]:
    span = CUT_RANGE + max(max(k, l) for k, l, _, _, _ in LOCATE)
    near = ref.grid_prefix(span, span)
    reqs = []
    for i, (k, l, rb, cb, how) in enumerate(LOCATE):
        x = rng.choice(ref.middle_class(ref.fib_bits(rb + k), k, rb,
                                        0, CUT_RANGE))
        y = rng.choice(ref.middle_class(ref.fib_bits(cb + l), l, cb,
                                        0, CUT_RANGE))
        w = tuple(r[y:y + l] for r in near[x:x + k])
        reqs.append(_locate_request(f"locate-{i}-{k}x{l}", w, rb, cb, how,
                                    ref.check_locate(w, rb, cb, near)))
    # a grid of consistent lines whose first column has two consecutive
    # minority-class rows: no such column occurs, so the answer is the
    # NotAFactor exit code
    gamma = ref.fib_bits(CUT_RANGE + 5)[rng.randrange(CUT_RANGE):][:5]
    bad = ref.grid_from_classes("011", gamma)
    reqs.append(_locate_request("locate-not-a-factor", bad, 1000, 1000,
                                "file", ref.check_empty,
                                exit_codes[NOT_A_FACTOR]))
    rng.shuffle(reqs)
    return reqs


def _locate_request(rid, w, rb, cb, how, check, exit_code=0) -> Request:
    text = "".join(r + "\n" for r in w).encode("ascii")
    src = "-" if how == "stdin" else FILE
    argv = ("locate", "--file", src, "--row-bound", str(rb),
            "--col-bound", str(cb))
    return Request(rid, "locate", argv, check, exit_code,
                   stdin=text if how == "stdin" else b"",
                   file=None if how == "stdin" else text)


WORKLOADS = {"square": square, "skinny": skinny, "locate": locate}
