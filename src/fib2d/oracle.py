"""Brute-force ground truth and the cross-method verification report.

Everything here works by materializing an explicit prefix of the infinite
grid by the substitution and scanning it, so it is independent of the
DAWG, extension and conjugation machinery it is used to check.  Like every
enumeration, the oracle gives the texts of the factors in sorted order, as
a stream (stream_subwords) or a tuple (oracle_subwords); the prefix's
windows are read by word2d.stream_windows.  oracle_occurrences finds a
pattern's first row in each prefix row and reads its other rows at the
same column.  verify() reads every method's stream and the oracle's at
double the bound side by side, one text at a time, so it holds no whole
output.
"""

from __future__ import annotations

from itertools import zip_longest

from . import conjugacy, dawg, frames
from .errors import BadBounds
from .word1d import fib, fib_index
from .word2d import Grid, dims, mu_prefix, stream_windows


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


def stream_subwords(k: int, l: int, R: int, C: int):
    """The texts of all distinct (k,l) windows of the (R,C) prefix, built
    by the explicit substitution, as a stream in sorted order
    (word2d.stream_windows)."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    if R < k or C < l:
        raise BadBounds(f"prefix ({R},{C}) smaller than window ({k},{l})")
    return stream_windows(mu_prefix(R, C), range(R - k + 1),
                          range(C - l + 1), k, l)[1]


def oracle_subwords(k: int, l: int, R: int, C: int) -> tuple[str, ...]:
    """The texts of all distinct (k,l) windows of the (R,C) prefix, sorted."""
    return tuple(stream_subwords(k, l, R, C))


def oracle_occurrences(w: Grid, R: int, C: int) -> tuple[tuple[int, int], ...]:
    """All 0-based offsets where w matches inside the (R,C) prefix,
    row-major ascending: each (i, j) where str.find meets w's first row
    in prefix row i at column j and each row r of w starts there in row
    i + r."""
    rows, cols = dims(w)
    if not w:
        raise ValueError("pattern must be non-empty")
    if R < rows or C < cols:
        raise BadBounds(f"prefix ({R},{C}) smaller than pattern ({rows},{cols})")
    g = mu_prefix(R, C)
    top, rest = w[0], tuple(enumerate(w[1:], 1))
    hits = []
    for i in range(R - rows + 1):
        row = g[i]
        j = row.find(top)
        while j >= 0:
            if all(g[i + r].startswith(u, j) for r, u in rest):
                hits.append((i, j))
            j = row.find(top, j + 1)
    return tuple(hits)


# every enumeration method by name, as (k, l) -> a stream of the subword
# texts in sorted order; every check runs before the first text but dawg's
# and extend's lane checks of later tops and their order check, which run
# as the stream goes, and the CLI writes nothing before the first text;
# the CLI's `enum --method` choices and the methods verify() compares
METHODS = {
    "conjugate": conjugacy.stream_conjugation,
    "dawg": dawg.stream_dawg,
    "extend": frames.stream_extension,
    "oracle": lambda k, l: stream_subwords(k, l, *sufficient_bounds(k, l)),
    "prefix": conjugacy.stream_prefix_conjugates,
}


def verify(k: int, l: int) -> dict:
    """Run every enumeration method for size (k,l) and compare.

    The methods' streams and the oracle's at double the bound are read
    side by side; each is strictly increasing, so text-by-text agreement
    is set agreement.  The report carries per-method sizes, that
    agreement, the (k+1)(l+1) count check and the double-bound oracle
    stability check; "ok" is True iff everything passes.
    """
    # prefix conjugates exist only from size (2,2) on
    names = [name for name in sorted(METHODS)
             if name != "prefix" or min(k, l) >= 2]
    R, C = sufficient_bounds(k, l)
    at, sizes = names.index("oracle"), dict.fromkeys(names, 0)
    agree = stable = True
    # a stream that has ended reads None, which no text equals
    for *texts, double in zip_longest(*[METHODS[name](k, l) for name in names],
                                      stream_subwords(k, l, 2 * R, 2 * C)):
        for name, text in zip(names, texts):
            sizes[name] += text is not None
            agree = agree and text == texts[at]
        stable = stable and double == texts[at]
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
