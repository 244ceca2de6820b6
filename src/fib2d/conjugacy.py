"""Cyclic rotations of grids and the conjugation enumerations.

Rotating rows and columns of a Fibonacci grid cyclically ranges over its
conjugacy class.  One distinguished conjugate has the property that the
top-left prefixes of its successive inverse rotations run through all
factors of a given size; a second enumeration reads prefixes of positive
rotations of the next larger grid.  Both stream the texts of the factors
in sorted order (stream_*) or return them as a sorted tuple
(enumerate_*).  Each distinct row window of the cyclic grid is named by
one character, in sorted order, so corners are told apart and sorted by
their k-character names, and only the distinct ones are spelled out, one
at a time.
"""

from __future__ import annotations

from .errors import EmptyWord, InternalError, OutOfRange
from .word1d import fib, fib_index, special_conjugate1d
from .word2d import Grid, dims, fib_array


def rotate2d(w: Grid, i: int, j: int) -> Grid:
    """Send the first i rows to the bottom and the first j columns to the
    right; negative exponents rotate the other way."""
    if not w:
        raise EmptyWord("cannot rotate the empty grid")
    rows, cols = dims(w)
    i %= rows
    j %= cols
    return tuple(row[j:] + row[:j] for row in w[i:] + w[:i])


def conjugacy_class(w: Grid) -> tuple[Grid, ...]:
    """All distinct row/column rotations of w; rows*cols of them iff w is
    primitive.

    Each distinct row is rotated once per column exponent, and every grid
    of the class is a row rotation of one column of those rotations, so
    equal rows of the class are one string.
    """
    if not w:
        raise ValueError("conjugacy class needs a non-empty grid")
    rows, cols = dims(w)
    turns = {r: [r[j:] + r[:j] for j in range(cols)] for r in set(w)}
    lanes = [turns[r] for r in w]
    return tuple(sorted({col[i:] + col[:i]
                         for col in zip(*lanes) for i in range(rows)}))


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


def _names(windows) -> dict[str, str]:
    """A one-character name for each window of the sorted list windows.

    The names follow the windows' order, so a string of names sorts and
    compares as the texts of the windows it spells, when all windows have
    one length.
    """
    return {win: chr(i) for i, win in enumerate(windows)}


def _corners(base: Grid, row_starts, col_starts, k: int, l: int,
             method: str):
    """The texts of the (k,l) top-left corners of the rotations of base
    that start at each row in row_starts and each column in col_starts, as
    a stream in sorted order.

    Corners are read off the cyclic grid without building any rotation.
    Each distinct row cuts its newline-ended windows once, and each
    distinct window is named by one character (_names).  A lane, one
    column of windows with a window per row, is then a string of names,
    and a corner's name is k characters of it.  The names are counted,
    since there must be (k+1)(l+1) distinct corners, and sorted before the
    stream starts.  Where the joined lanes are no larger than the names
    (tall, thin corners), a corner is one slice of its lane's text;
    otherwise it is the join of its k windows.
    """
    cut = {}
    for w in set(base):
        cyclic = w + w[:l - 1]
        cut[w] = [cyclic[j:j + l] + "\n" for j in col_starts]
    names = _names(sorted({win for wins in cut.values() for win in wins}))
    spelled = {w: "".join([names[win] for win in wins])
               for w, wins in cut.items()}
    rows = base + base[:k - 1]
    # each lane as its windows, and as the string of their names, of which
    # one (lane, row) position is kept per distinct corner
    lanes = list(zip(*[cut[w] for w in rows]))
    first = {name[i:i + k]: (j, i) for j, name in
             enumerate(map("".join, zip(*[spelled[w] for w in rows])))
             for i in row_starts}
    if len(first) != (k + 1) * (l + 1):
        raise InternalError(f"size ({k},{l}) has {(k + 1) * (l + 1)} "
                            f"subwords, {method} gave {len(first)}")
    order = map(first.__getitem__, sorted(first))
    n = l + 1
    # a slice of a joined lane is the fastest cut, taken where the joined
    # lanes are no larger than the names
    if len(lanes) * len(lanes[0]) * n <= len(first) * k:
        texts = list(map("".join, lanes))
        return (texts[j][i * n:(i + k) * n] for j, i in order)
    return ("".join(lanes[j][i:i + k]) for j, i in order)


def stream_conjugation(k: int, l: int):
    """The texts of all (k+1)(l+1) subwords of size (k,l), as a stream in
    sorted order, read as prefixes of the inverse rotations of the special
    conjugate.  Every check runs before the stream starts."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    q = special_conjugate2d(_cover_index(k), _cover_index(l))
    rows, cols = dims(q)
    return _corners(q, [-i % rows for i in range(k + 1)],
                    [-j % cols for j in range(l + 1)], k, l, "conjugation")


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
    return _corners(fib_array(m + 1, n + 1), _prefix_rotations(k, m),
                    _prefix_rotations(l, n), k, l, "prefix conjugates")


def enumerate_prefix_conjugates(k: int, l: int) -> tuple[str, ...]:
    """The texts of the (k+1)(l+1) subwords of size (k,l), sorted, from
    the prefix conjugates."""
    return tuple(stream_prefix_conjugates(k, l))
