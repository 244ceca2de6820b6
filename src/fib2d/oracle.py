"""Brute-force ground truth and the cross-method verification report.

Everything here works by materializing an explicit prefix of the infinite
grid and scanning windows, so it is independent of the DAWG, extension and
conjugation machinery it is used to check.  Like every enumeration, the
oracle returns the sorted texts of the factors.  A tall window is named by
its text, so telling tall windows apart hashes one string per window, not
one reference per row, and the names are the answer.
"""

from __future__ import annotations

from . import conjugacy, dawg, frames
from .errors import BadBounds
from .word1d import fib, fib_index
from .word2d import Grid, dims, mu_prefix, to_text


def sufficient_bounds(k: int, l: int) -> tuple[int, int]:
    """A prefix size that contains every (k,l) subword.

    With m minimal such that k < fib(m) the conjugates of the (m,m') grid
    carry all subwords, and they all sit inside the (fib(m+2), fib(m'+2))
    prefix.  verify() re-checks this at double the bound on every run.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    # k, l >= 1 = fib(1), so m, n >= 2
    m, n = fib_index(k, "F11"), fib_index(l, "F11")
    return fib(m + 2, "F11"), fib(n + 2, "F11")


def _bands(l: int, R: int, C: int, end: str = ""):
    """(j, band) for every width-l column band of the (R,C) prefix, each
    row of a band followed by `end`.

    Each distinct row of the prefix is cut once per band, so equal rows of
    a band, and of every window sliced from it, are one string.
    """
    g = mu_prefix(R, C)
    distinct = set(g)
    for j in range(C - l + 1):
        rows = {r: r[j:j + l] + end for r in distinct}
        yield j, tuple([rows[r] for r in g])


def _windows(k: int, l: int, R: int, C: int):
    """((i, j), window) for every 0-based (k,l) window of the (R,C) prefix,
    each a slice of its column band."""
    for j, band in _bands(l, R, C):
        for i in range(R - k + 1):
            yield (i, j), band[i:i + k]


def _tall_subwords(k: int, l: int, R: int, C: int) -> tuple[str, ...]:
    """The texts of all distinct (k,l) windows of the (R,C) prefix, sorted,
    for k > l.

    A window is named by its text, one slice of its column band's text
    with every row newline-ended, so a name hashes in C instead of as k row
    references, and the name is what is returned.
    """
    n = l + 1
    names = set()
    for _, band in _bands(l, R, C, "\n"):
        text = "".join(band)
        names.update([text[i * n:(i + k) * n] for i in range(R - k + 1)])
    return tuple(sorted(names))


def oracle_subwords(k: int, l: int, R: int, C: int) -> tuple[str, ...]:
    """The texts of all distinct (k,l) windows of the (R,C) prefix, sorted.

    Tall windows (k > l) are named by their text (_tall_subwords).  The
    others are hashed as their k row references: a name would copy all
    k*l letters of every window, which at (2,1100) doubles the time.  Only
    the distinct ones are rendered.  Rows have one length, so texts sort
    as their windows do.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    if R < k or C < l:
        raise BadBounds(f"prefix ({R},{C}) smaller than window ({k},{l})")
    if k > l:
        return _tall_subwords(k, l, R, C)
    return tuple(sorted([to_text(win) for win in
                         {win for _, win in _windows(k, l, R, C)}]))


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


# every enumeration method by name, as (k, l) -> sorted subword texts; the
# CLI's `enum --method` choices and the methods verify() compares
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
    names = [name for name in sorted(METHODS)
             if name != "prefix" or min(k, l) >= 2]
    # every method is compared with the oracle's texts, and each other
    # method's texts are dropped before the next method builds its own
    truth = METHODS["oracle"](k, l)
    R, C = sufficient_bounds(k, l)
    stable = oracle_subwords(k, l, 2 * R, 2 * C) == truth
    sizes, agree = {}, True
    for name in names:
        texts = truth if name == "oracle" else METHODS[name](k, l)
        sizes[name] = len(texts)
        agree = agree and texts == truth
        del texts
    expected = (k + 1) * (l + 1)
    return {
        "k": k,
        "l": l,
        "expected": expected,
        "sizes": sizes,
        "methods_agree": agree,
        "oracle_stable": stable,
        "ok": agree and stable and all(s == expected for s in sizes.values()),
    }
