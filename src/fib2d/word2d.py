"""Rectangular words over {a,b,c,d} and the two-dimensional Fibonacci word.

A grid is a tuple of equal-length row strings, row-major.  The empty grid ()
is the neutral element of both concatenations; sizes (m,0) and (0,m) with
m > 0 do not exist.  API coordinates are 1-based.

Rows of the infinite grid are over {d,c} or {b,a} (d, b dominant), columns
over {d,b} or {c,a}.  Within any factor, lines sharing an alphabet are equal.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotFibStructured, OutOfDomain, ShapeMismatch

Grid = tuple[str, ...]

EMPTY: Grid = ()

ROW_ALPHABETS = ("dc", "ba")
COL_ALPHABETS = ("db", "ca")

# a<->c, b<->d: maps a row word to the word of the companion row alphabet
_SWAP = str.maketrans("abcd", "cdab")


def swap_row_alphabet(w: str) -> str:
    return w.translate(_SWAP)


def fill(top: str, side: str) -> Grid:
    """The grid with first row `top` whose rows follow the column `side`.

    Row i is top where side[i] equals side[0] and the alphabet-swapped copy
    of top elsewhere: the frame decomposition of every factor.
    """
    first, other = side[0], swap_row_alphabet(top)
    return tuple([top if ch == first else other for ch in side])


def row_alphabet_of(ch: str) -> str:
    """The row alphabet containing ch, dominant letter first."""
    if ch not in "abcd":
        raise ValueError(f"letter {ch!r} outside 'abcd'")
    return "dc" if ch in "dc" else "ba"


def col_alphabet_of(ch: str) -> str:
    """The column alphabet containing ch, dominant letter first."""
    if ch not in "abcd":
        raise ValueError(f"letter {ch!r} outside 'abcd'")
    return "db" if ch in "db" else "ca"


# ------------------------------------------------------------------ shape --

def dims(w: Grid) -> tuple[int, int]:
    if not w:
        return (0, 0)
    return (len(w), len(w[0]))


def as_grid(rows) -> Grid:
    """Freeze a sequence of row strings into a grid, validating the shape."""
    g = tuple(rows)
    if not g:
        return EMPTY
    width = len(g[0])
    if width == 0:
        raise ShapeMismatch("grids with empty rows do not exist")
    for row in g:
        if len(row) != width:
            raise ShapeMismatch("rows have unequal lengths")
        for ch in row:
            if ch not in "abcd":
                raise ValueError(f"letter {ch!r} outside 'abcd'")
    return g


def column(w: Grid, j: int) -> str:
    """1-based column of w as a string."""
    rows, cols = dims(w)
    if not 1 <= j <= cols:
        raise OutOfDomain(f"column {j} of a {rows}x{cols} grid")
    return "".join([row[j - 1] for row in w])


def to_text(w: Grid) -> str:
    return "\n".join((*w, ""))


def parse_text(s: str) -> Grid:
    return as_grid([line for line in s.splitlines() if line.strip()])


# --------------------------------------------------------- concatenations --

def concat_col(u: Grid, v: Grid) -> Grid:
    """Juxtapose: u left, v right.  Needs equal row counts."""
    if not u:
        return v
    if not v:
        return u
    if len(u) != len(v):
        raise ShapeMismatch(f"row counts differ: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def concat_row(u: Grid, v: Grid) -> Grid:
    """Stack: u on top, v below.  Needs equal column counts."""
    if not u:
        return v
    if not v:
        return u
    if len(u[0]) != len(v[0]):
        raise ShapeMismatch(f"column counts differ: {len(u[0])} vs {len(v[0])}")
    return u + v


# -------------------------------------------------------- Fibonacci grids --

def _expand(x0: Grid, x1: Grid, steps: int, cat) -> Grid:
    # x_{i+1} = cat(x_i, x_{i-1})
    a, b = x0, x1
    for _ in range(steps):
        a, b = b, cat(b, a)
    return a


def fib_array(m: int, n: int) -> Grid:
    """The Fibonacci grid of size (fib(m), fib(n)) under F(0) = F(1) = 1.

    Starts from the four 1x1 grids a (0,0), b (0,1), c (1,0), d (1,1) and
    grows by x_{k,j+1} = x_{k,j} o x_{k,j-1} in both directions, columns
    first.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    top = _expand(("a",), ("b",), n, concat_col)
    bottom = _expand(("c",), ("d",), n, concat_col)
    return _expand(top, bottom, m, concat_row)


def _square_step(g: Grid) -> Grid:
    # letter images: d -> dc/ba, c -> d/b, b -> dc, a -> d
    out = []
    for row in g:
        if row[0] in "dc":
            out.append("".join("dc" if ch == "d" else "d" for ch in row))
            out.append("".join("ba" if ch == "d" else "b" for ch in row))
        else:
            out.append("".join("dc" if ch == "b" else "d" for ch in row))
    return tuple(out)


def mu_prefix(rows: int, cols: int) -> Grid:
    """The (rows, cols) top-left corner of the infinite grid.

    Each substitution step keeps only that corner: every letter's image is
    at least 1x1 and a row's image depends only on that row, so the corner
    of the image depends only on the corner of the preimage.
    """
    if rows < 1 or cols < 1:
        raise ValueError("size must be at least (1,1)")
    g: Grid = ("d",)
    while len(g) < rows or len(g[0]) < cols:
        g = tuple(r[:cols] for r in _square_step(g)[:rows])
    return g


# -------------------------------------------------------------- structure --

def subblock(w: Grid, top_left, bottom_right) -> Grid:
    """The sub-grid between two 1-based inclusive corners."""
    i, j = top_left
    i2, j2 = bottom_right
    if i > i2 or j > j2:
        raise ValueError("corners must satisfy i <= i' and j <= j'")
    rows, cols = dims(w)
    if i < 1 or j < 1 or i2 > rows or j2 > cols:
        raise OutOfDomain(f"[{top_left},{bottom_right}] outside {rows}x{cols}")
    return tuple(r[j - 1:j2] for r in w[i - 1:i2])


class LineTags(NamedTuple):
    rows: tuple[str, ...]
    cols: tuple[str, ...]


def _tag(line: str, alphabets) -> str:
    for alph in alphabets:
        if set(line) <= set(alph):
            return alph
    raise NotFibStructured(f"line {line!r} mixes alphabets")


def classify_lines(w: Grid) -> LineTags:
    """Tag each row with 'dc' or 'ba' and each column with 'db' or 'ca'.

    A grid is line-structured iff its first row stays in one alphabet and
    the grid is the fill of its first row and first column; the first
    column then stays in one alphabet too.  Otherwise some line mixes
    alphabets or two lines sharing a tag differ, both impossible inside the
    infinite grid, and NotFibStructured is raised.
    """
    if not w:
        raise ValueError("cannot classify the empty grid")
    top, side = w[0], column(w, 1)
    _tag(top, ROW_ALPHABETS)
    if fill(top, side) != w:
        raise NotFibStructured("grid is not the fill of its first row and column")
    return LineTags(tuple(map(row_alphabet_of, side)),
                    tuple(map(col_alphabet_of, top)))

