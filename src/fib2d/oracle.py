"""Brute-force ground truth and the cross-method verification report.

Everything here works by materializing an explicit prefix of the infinite
grid and scanning windows, so it is independent of the DAWG, extension and
conjugation machinery it is used to check.
"""

from __future__ import annotations

from . import conjugacy, dawg, frames
from .errors import BadBounds
from .word1d import fib
from .word2d import Grid, dims, mu_prefix


def sufficient_bounds(k: int, l: int) -> tuple[int, int]:
    """A prefix size that contains every (k,l) subword.

    With m minimal such that k < fib(m) the conjugates of the (m,m') grid
    carry all subwords, and they all sit inside the (fib(m+2), fib(m'+2))
    prefix.  verify() re-checks this at double the bound on every run.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    m = 2
    while fib(m, "F11") <= k:
        m += 1
    n = 2
    while fib(n, "F11") <= l:
        n += 1
    return fib(m + 2, "F11"), fib(n + 2, "F11")


def _windows(k: int, l: int, R: int, C: int):
    """((i, j), window) for every 0-based (k,l) window of the (R,C) prefix.

    Each column band is cut once; its windows are slices of the band.
    """
    g = mu_prefix(R, C)
    for j in range(C - l + 1):
        band = tuple([row[j:j + l] for row in g])
        for i in range(R - k + 1):
            yield (i, j), band[i:i + k]


def oracle_subwords(k: int, l: int, R: int, C: int) -> tuple[Grid, ...]:
    """All distinct (k,l) windows of the (R,C) prefix, sorted."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    if R < k or C < l:
        raise BadBounds(f"prefix ({R},{C}) smaller than window ({k},{l})")
    return tuple(sorted({win for _, win in _windows(k, l, R, C)}))


def oracle_occurrences(w: Grid, R: int, C: int) -> tuple[tuple[int, int], ...]:
    """All 0-based offsets where w matches inside the (R,C) prefix,
    row-major ascending."""
    rows, cols = dims(w)
    if not w:
        raise ValueError("pattern must be non-empty")
    if R < rows or C < cols:
        raise BadBounds(f"prefix ({R},{C}) smaller than pattern ({rows},{cols})")
    return tuple(sorted(at for at, win in _windows(rows, cols, R, C)
                        if win == w))


# every enumeration method by name, as (k, l) -> sorted subwords; the CLI's
# `enum --method` choices and the methods verify() compares
METHODS = {
    "conjugate": conjugacy.enumerate_conjugation,
    "dawg": dawg.enumerate_dawg,
    "extend": frames.enumerate_extension,
    "oracle": lambda k, l: oracle_subwords(k, l, *sufficient_bounds(k, l)),
    "prefix": conjugacy.enumerate_prefix_conjugates,
}


def verify(k: int, l: int) -> dict:
    """Run every enumeration method for size (k,l) and compare.

    The report carries per-method sizes, set agreement, the (k+1)(l+1)
    count check and the double-bound oracle stability check; "ok" is True
    iff everything passes.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    # prefix conjugates exist only from size (2,2) on
    sets = {name: enum(k, l) for name, enum in METHODS.items()
            if name != "prefix" or min(k, l) >= 2}
    names = sorted(sets)
    expected = (k + 1) * (l + 1)
    agree = all(sets[a] == sets[b] for a, b in zip(names, names[1:]))
    R, C = sufficient_bounds(k, l)
    stable = oracle_subwords(k, l, 2 * R, 2 * C) == sets["oracle"]
    sizes = {name: len(sets[name]) for name in names}
    return {
        "k": k,
        "l": l,
        "expected": expected,
        "sizes": sizes,
        "methods_agree": agree,
        "oracle_stable": stable,
        "ok": agree and stable and all(s == expected for s in sizes.values()),
    }
