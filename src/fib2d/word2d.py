"""Rectangular words over {a,b,c,d} and the two-dimensional Fibonacci word.

A grid is a tuple of equal-length row strings, row-major.  The empty grid ()
has size (0,0); sizes (m,0) and (0,m) with m > 0 do not exist.  API
coordinates are 1-based.  A grid's text is its rows, each ending in a
newline (to_text); parse_text reads the grid back.

Rows of the infinite grid are over {d,c} or {b,a} (d, b dominant), columns
over {d,b} or {c,a}.  Within any factor, lines sharing an alphabet are equal.
"""

from itertools import chain, count, islice, repeat
from math import isqrt

from .errors import (InternalError, NotFibStructured, OutOfDomain,
                     ShapeMismatch)
from .word1d import LETTERS, factor_prefix, fib_word

Grid = tuple[str, ...]

ROW_ALPHABETS = ("dc", "ba")
COL_ALPHABETS = ("db", "ca")

# a<->c, b<->d: maps a row word to the word of the companion row alphabet
_SWAP = str.maketrans("abcd", "cdab")
# a<->b, c<->d: the same for a column word and the column alphabets
_SWAP_COL = str.maketrans("abcd", "badc")
# deletes the letters, leaving what is not one
_NOT_LETTERS = str.maketrans("", "", "abcd")


def swap_row_alphabet(w: str) -> str:
    return w.translate(_SWAP)


def fill(top: str, side: str) -> Grid:
    """The grid with first row `top` whose rows follow the column `side`.

    Row i is top where side[i] equals side[0] and the alphabet-swapped copy
    of top elsewhere: the frame decomposition of every factor.
    """
    first, other = side[0], swap_row_alphabet(top)
    return tuple([top if ch == first else other for ch in side])


# first letter of a column -> table sending it to "0" and every other
# letter to "1"
_BITS = {x: str.maketrans({y: "0" if y == x else "1" for y in LETTERS})
         for x in LETTERS}


def fill_text(top: str, side: str) -> str:
    """to_text(fill(top, side)), built without the grid: side becomes one
    bit per row, and each bit becomes its row and a newline, all in C."""
    return (side.translate(_BITS[side[0]])
            .replace("0", top + "\n")
            .replace("1", swap_row_alphabet(top) + "\n"))


# first letter of a row word -> whether the word sorts before its swap, so
# that the texts under it ascend with the 0/1 patterns of their sides; the
# swap changes every letter, so the first decides
_ASCENDING = {x: x < swap_row_alphabet(x) for x in LETTERS}


def stream_fills(tops, sides, k: int, l: int, column: int):
    """fill_text(top, side) for each top and each side that starts with its
    corner letter top[column], as a stream in sorted order.

    tops are row factors over dc, sides column factors over db, of length
    l and k, each the offset of its first occurrence in its line word's
    word1d.factor_prefix; each also stands for its swap (swap_row_alphabet;
    a<->b, c<->d), so the pairs are the frames of all four corner letters.
    Swaps keep order and every ba word sorts before every dc word, so the
    tops are sliced and sorted once and their swaps made one at a time,
    ahead of them.  Each top is filled once over the span of q, the prefix
    over db, that holds its corner's sides, its lane, and a text is the k
    rows of the lane at its side's offset.  q over ca is q over db swapped,
    so a swapped side's span and place are its side's.  An offset past its
    prefix, a top whose corner starts no side, or a lane whose 0-based
    column `column` is not the span raises InternalError.

    A text's rows are its top or its swap as its side's 0/1 pattern says,
    so the texts come top by top in sorted order, and under one top by the
    patterns of its corner's sides: ascending if top < swap_row_alphabet(top),
    else descending.  Each text is checked to be greater than the one
    before, which gives order and distinctness, and is yielded only once
    the text after it has passed, so a break raises InternalError before
    either text of the broken pair is yielded.
    """
    p, q = factor_prefix("dc", l), factor_prefix("db", k)
    for offsets, word, n in (tops, p, l), (sides, q, k):
        if offsets and not 0 <= min(offsets) <= max(offsets) <= len(word) - n:
            raise InternalError(f"length-{n} words at offsets {min(offsets)}"
                                f"..{max(offsets)} leave the prefix of "
                                f"{len(word)}")
    tops, w, spans = sorted([p[i:i + l] for i in tops]), l + 1, {}
    for x in sorted({q[i] for i in sides}):  # b before d, as a before c
        # sides that share their first letter x first differ where one has
        # x, a 0, and the other the other letter of db, a 1, so their
        # patterns ascend as they do when x is the smaller, b
        at = sorted([i for i in sides if q[i] == x],
                    key=lambda i: q[i:i + k], reverse=x == "d")
        first = min(at)
        span = q[first:max(at) + k]
        # each text's start in the lane, by ascending pattern, and length
        cut = [(j - first) * w for j in at], k * w
        spans[x] = span, cut
        spans[x.translate(_SWAP_COL)] = span.translate(_SWAP_COL), cut
    prev = ""
    for top in chain(map(swap_row_alphabet, tops), tops):
        if top[column] not in spans:
            raise InternalError(f"no side starts with the corner letter "
                                f"{top[column]!r} of top {top!r}")
        span, (starts, size) = spans[top[column]]
        lane = fill_text(top, span)
        if lane[column::w] != span:
            raise InternalError(f"the lane of top {top!r} does not have "
                                f"{span!r} as its column {column + 1}")
        for a in starts if _ASCENDING[top[0]] else reversed(starts):
            text = lane[a:a + size]
            if text <= prev:
                raise InternalError(
                    f"the texts under top {top!r} are out of sorted order")
            if prev:
                yield prev
            prev = text
    if prev:
        yield prev


def row_alphabet_of(ch: str) -> str:
    """The row alphabet containing ch, dominant letter first."""
    if ch not in LETTERS:
        raise ValueError(f"letter {ch!r} outside 'abcd'")
    return "dc" if ch in "dc" else "ba"


def col_alphabet_of(ch: str) -> str:
    """The column alphabet containing ch, dominant letter first."""
    if ch not in LETTERS:
        raise ValueError(f"letter {ch!r} outside 'abcd'")
    return "db" if ch in "db" else "ca"


# ------------------------------------------------------------------ shape --

def count_law(n: int, k: int, l: int, method: str) -> None:
    """InternalError unless n, the subwords of size (k,l) that method
    gave, is the (k+1)(l+1) of the count law."""
    if n != (k + 1) * (l + 1):
        raise InternalError(f"size ({k},{l}) has {(k + 1) * (l + 1)} "
                            f"subwords, {method} gave {n}")


def dims(w: Grid) -> tuple[int, int]:
    if not w:
        return (0, 0)
    width = len(w[0])
    if not width:
        raise ShapeMismatch("grids with empty rows do not exist")
    if any(len(row) != width for row in w):
        raise ShapeMismatch("rows have unequal lengths")
    return (len(w), width)


def column(w: Grid, j: int) -> str:
    """1-based column of w as a string."""
    rows, cols = dims(w)
    if not 1 <= j <= cols:
        raise OutOfDomain(f"column {j} of a {rows}x{cols} grid")
    return "".join([row[j - 1] for row in w])


def to_text(w: Grid) -> str:
    return "\n".join((*w, ""))


def parse_text(s: str) -> Grid:
    """The grid of the lines of s that are not blank, each checked for the
    first line's width, then for its letters."""
    g = tuple([line for line in s.splitlines() if line.strip()])
    for row in g:
        if len(row) != len(g[0]):
            raise ShapeMismatch("rows have unequal lengths")
        bad = row.translate(_NOT_LETTERS)
        if bad:
            raise ValueError(f"letter {bad[0]!r} outside 'abcd'")
    return g


# -------------------------------------------------------- Fibonacci grids --

def fib_array(m: int, n: int) -> Grid:
    """The Fibonacci grid of size (fib(m), fib(n)) under F(0) = F(1) = 1.

    Starts from the four 1x1 grids a (0,0), b (0,1), c (1,0), d (1,1) and
    grows by x_{k,j+1} = x_{k,j} o x_{k,j-1} in both directions.  Column
    concatenation acts on each row alone, so the rows are the 1D words
    fib_word(n) over (a, b) and over (c, d), stacked in the order of the
    letters of fib_word(m) over (a, c).
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    rows = {"a": fib_word(n, "a", "b"), "c": fib_word(n, "c", "d")}
    return tuple([rows[ch] for ch in fib_word(m, "a", "c")])


# the square substitution d -> dc/ba, c -> d/b, b -> dc, a -> d, one table
# per image row; b and a have no bottom row, so a {b,a} row has one image row
_MU_TOP = str.maketrans({"d": "dc", "c": "d", "b": "dc", "a": "d"})
_MU_BOTTOM = str.maketrans({"d": "ba", "c": "b", "b": None, "a": None})


def _square_step(g: Grid, rows: int, cols: int) -> Grid:
    """The image of g under the square substitution, keeping only its
    first `rows` rows and `cols` columns.

    Each distinct row is substituted and cropped once, and equal image
    rows are one string, so the image is built already cropped and holds
    each distinct row once.
    """
    one = {}
    images = {row: tuple([one.setdefault(r, r) for r in (
                  row.translate(_MU_TOP)[:cols],
                  row.translate(_MU_BOTTOM)[:cols]) if r])
              for row in set(g)}
    return tuple(islice(chain.from_iterable(map(images.__getitem__, g)),
                        rows))


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
        g = _square_step(g, rows, cols)
    return g


# ---------------------------------------------------------------- windows --

_WHOLE = 128  # windows this wide are keyed by their isqrt(w)-wide blocks


def _keys(b: str, period: int, offsets, w: int):
    """Strings that sort and compare as the width-w windows of b at
    t*period + o, piece t by piece t, for o in offsets, as an iterator.

    A wide window's key is the names (_rank) of its h = isqrt(w)-wide
    blocks at 0, h, 2h, ... and of the block that ends it, which overlaps
    only letters the others compare: a strided slice of the names of every
    block inside a piece, and one character, about sqrt(w) in all."""
    if w < _WHOLE:
        return (b[x:x + w] for s in range(0, len(b), period)
                for x in map(s.__add__, offsets))
    h = isqrt(w)
    fit = period - h + 1
    names = _rank(b, period, range(fit), h)
    return (names[x:x + w - h + 1:h] + names[x + w - h]
            for s in range(0, len(names), fit)
            for x in map(s.__add__, offsets))


def _rank(b: str, period: int, offsets, w: int) -> str:
    """One character per window of _keys(b, period, offsets, w), in order:
    its rank among the distinct windows, so names sort as their texts do.

    Each window is first named by the order its key is met in; the keys
    are sorted and dropped before the table from those names to ranks, a
    list indexed by their ordinals, is built."""
    met = {}  # a name for each key, in the order the keys are met
    names = "".join([met.setdefault(key, chr(len(met)))
                     for key in _keys(b, period, offsets, w)])
    firsts = list(map(met.__getitem__, sorted(met)))  # by rank
    del met  # and with it every key
    ranks = [""] * len(firsts)
    for i, name in enumerate(firsts):
        ranks[ord(name)] = chr(i)
    return names.translate(ranks)


def stream_windows(rows, row_starts, col_starts, k: int, l: int):
    """(n, texts): the number of distinct (k,l) windows of the grid rows
    whose top-left corners lie at a row in row_starts and a column in
    col_starts, and their texts as a stream in sorted order.

    Each distinct row window is named by one character (_rank over the
    distinct rows, joined as they are), each lane of windows, one per row,
    is then a string of names kept once, and a window is k names of it,
    keyed (_keys over the joined lanes) and sorted before the stream
    starts.  A text is cut as it is yielded: a tall, thin window's as a
    slice of its lane's text, else for l <= k as the join of its k row
    windows, each held once, else as the join of k slices of its rows.
    """
    distinct, c, r = list(dict.fromkeys(rows)), len(col_starts), len(row_starts)
    names = _rank("".join(distinct), len(rows[0]), col_starts, l)
    index = dict(zip(distinct, map(chr, count())))
    spelled = "".join(map(index.__getitem__, rows))
    tables = {names[i::c]: j for i, j in enumerate(col_starts)}  # lanes
    cols, height = list(tables.values()), len(rows)
    lanes = "".join(map(spelled.translate, tables))
    del tables  # before the windows are keyed
    first = dict(zip(_keys(lanes, height, row_starts, k), count()))
    order = [x // r * height + row_starts[x % r]
             for x in map(first.pop, sorted(first))]
    n, tall = l + 1, len(cols) * len(rows) * (l + 1) <= len(order) * k
    if l > k and not tall:
        return len(order), ("\n".join([row[cols[t]:cols[t] + l]
                                        for row in rows[i:i + k]]) + "\n"
                            for t, i in map(divmod, order, repeat(height)))
    where = dict(zip(names, count()))  # a window of each name
    held = [distinct[x // c][col_starts[x % c]:col_starts[x % c] + l] + "\n"
            for x in map(where.__getitem__, sorted(where))]
    if tall:
        texts = [lanes[i:i + height].translate(held)
                 for i in range(0, len(lanes), height)]
        return len(order), (texts[t][i * n:(i + k) * n]
                            for t, i in map(divmod, order, repeat(height)))
    windows = tuple(map(held.__getitem__, map(ord, lanes)))
    return len(order), ("".join(windows[p:p + k]) for p in order)


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


def classify_lines(w: Grid) -> None:
    """Check that w is line-structured, raising NotFibStructured if not.

    A grid is line-structured iff its first row stays in one alphabet and
    the grid is the fill of its first row and first column; the first
    column then stays in one alphabet too.  Otherwise some line mixes
    alphabets or two lines sharing a tag differ, both impossible inside the
    infinite grid, and NotFibStructured is raised.
    """
    if not w:
        raise ValueError("cannot classify the empty grid")
    top, side = w[0], column(w, 1)
    if not any(set(top) <= set(alph) for alph in ROW_ALPHABETS):
        raise NotFibStructured(f"line {top!r} mixes alphabets")
    if fill(top, side) != w:
        raise NotFibStructured("grid is not the fill of its first row and column")
