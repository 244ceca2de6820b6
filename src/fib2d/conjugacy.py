"""Cyclic rotations of grids and the conjugation enumerations.

Rotating rows and columns of a Fibonacci grid cyclically ranges over its
conjugacy class.  One distinguished conjugate has the property that the
top-left prefixes of its successive inverse rotations run through all
factors of a given size; a second enumeration reads prefixes of positive
rotations of the next larger grid.  Both read those corners as windows of
the grid taken cyclically (word2d.stream_windows) and check their count,
and give the texts of the factors in sorted order, as a stream (stream_*)
or a sorted tuple (enumerate_*).  The class itself is read by the same
cyclic window reader: its grids are the grid's own-size windows.
"""

from .errors import EmptyWord, InternalError, OutOfRange
from .word1d import fib, fib_index, special_conjugate1d
from .word2d import Grid, count_law, dims, fib_array, stream_windows


def rotate2d(w: Grid, i: int, j: int) -> Grid:
    """Send the first i rows to the bottom and the first j columns to the
    right; negative exponents rotate the other way."""
    if not w:
        raise EmptyWord("cannot rotate the empty grid")
    rows, cols = dims(w)
    i %= rows
    j %= cols
    return tuple(row[j:] + row[:j] for row in w[i:] + w[:i])


def stream_class(w: Grid):
    """The texts of all distinct row/column rotations of w, as a stream in
    sorted order: its (rows, cols) windows taken cyclically."""
    if not w:
        raise ValueError("conjugacy class needs a non-empty grid")
    rows, cols = dims(w)
    return _corners(w, range(rows), range(cols), rows, cols)[1]


def conjugacy_class(w: Grid) -> tuple[Grid, ...]:
    """All distinct row/column rotations of w, sorted; rows*cols of them
    iff w is primitive.  Equal rows of the class are one string."""
    one = {}
    return tuple(tuple([one.setdefault(r, r) for r in text.splitlines()])
                 for text in stream_class(w))


def special_conjugate2d(m: int, n: int) -> Grid:
    """The conjugate of fib_array(m,n) whose inverse rotations enumerate
    factors by prefixes.

    A column rotation of fib_array(m,n) rotates both of its row words and a
    row rotation rotates the word that orders its rows, so each takes the
    1D special conjugate.
    """
    if m < 2 or n < 2:
        raise ValueError("m and n must be >= 2")
    rows = {"a": special_conjugate1d(n, "ba"),
            "c": special_conjugate1d(n, "dc")}
    return tuple([rows[ch] for ch in special_conjugate1d(m, "ca")])


def _cover_index(k: int) -> int:
    # least m >= 2 with k < fib(m, "F11")
    return max(2, fib_index(k, "F11"))


def _corners(base: Grid, row_starts, col_starts, k: int, l: int):
    """(n, texts): the number of distinct (k,l) top-left corners of the
    rotations of base that start at each row in row_starts and each column
    in col_starts, and their texts as a stream in sorted order.

    Corners are the windows of base taken cyclically, read by
    word2d.stream_windows without building any rotation.
    """
    cyclic = {w: w + w[:l - 1] for w in set(base)}
    return stream_windows([cyclic[w] for w in base + base[:k - 1]],
                          row_starts, col_starts, k, l)


def stream_conjugation(k: int, l: int):
    """The texts of all (k+1)(l+1) subwords of size (k,l), as a stream in
    sorted order, read as prefixes of the inverse rotations of the special
    conjugate.  Every check runs before the stream starts."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    q = special_conjugate2d(_cover_index(k), _cover_index(l))
    rows, cols = dims(q)
    row_starts = [-i % rows for i in range(k + 1)]
    col_starts = [-j % cols for j in range(l + 1)]
    # the paper reads exactly one corner per factor: more corners can
    # repeat factors and still pass the count law below
    count_law(len(row_starts) * len(col_starts), k, l, "conjugation corners")
    n, texts = _corners(q, row_starts, col_starts, k, l)
    count_law(n, k, l, "conjugation")
    return texts


def enumerate_conjugation(k: int, l: int) -> tuple[str, ...]:
    """The texts of all (k+1)(l+1) subwords of size (k,l), sorted."""
    return tuple(stream_conjugation(k, l))


def _prefix_rotations(k: int, m: int) -> tuple[int, ...]:
    # {0..F(m)-1} plus the tail {F(m+2)-k-1..F(m+1)-1}: k+1 exponents
    lo = tuple(range(fib(m, "F11")))
    hi = tuple(range(fib(m + 2, "F11") - k - 1, fib(m + 1, "F11")))
    if len(set(lo + hi)) != k + 1:
        raise InternalError(f"{len(set(lo + hi))} rotation exponents for "
                            f"length {k}, expected {k + 1}")
    return lo + hi


def stream_prefix_conjugates(k: int, l: int):
    """The same (k+1)(l+1) subwords as a stream in sorted order, read from
    positive rotations of the one-larger grid; needs k, l >= 2.  Every
    check runs before the stream starts."""
    if k < 2 or l < 2:
        raise OutOfRange("prefix-conjugate enumeration needs k, l >= 2")
    # for k >= 2, fib(m) <= k < fib(m+1)
    m = _cover_index(k) - 1
    n = _cover_index(l) - 1
    found, texts = _corners(fib_array(m + 1, n + 1), _prefix_rotations(k, m),
                            _prefix_rotations(l, n), k, l)
    count_law(found, k, l, "prefix conjugates")
    return texts


def enumerate_prefix_conjugates(k: int, l: int) -> tuple[str, ...]:
    """The texts of the (k+1)(l+1) subwords of size (k,l), sorted, from
    the prefix conjugates."""
    return tuple(stream_prefix_conjugates(k, l))
