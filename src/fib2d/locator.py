"""Occurrence sets of grid factors, computed arithmetically.

A factor occurs exactly where its first-column word occurs going down and
its first-row word occurs going right, so the 2D occurrence set is the
Cartesian product of two 1D occurrence sets, each of the form
"Zeckendorf-restricted integers shifted by the first occurrence".  A
line-structured grid is the fill of its frame, so it is a factor iff both
frame words are; the 1D searches raise NotAFactor when one is not.
"""

from __future__ import annotations

from .frames import frame_tl
from .word1d import _first_occ, _occ_from
from .word2d import Grid, col_alphabet_of, row_alphabet_of


def first_occ2d(w: Grid) -> tuple[int, int]:
    """0-based (row, column) offset of the first occurrence of w.

    The corner letter selects which of the four line words each frame word
    is searched in: the first column in a column word over {d,b} or {c,a},
    the first row in a row word over {d,c} or {b,a}.
    """
    return occ_axes(w, 0, 0)[0]


def occ_axes(w: Grid, row_bound: int, col_bound: int
             ) -> tuple[tuple[int, int], tuple[int, ...], tuple[int, ...]]:
    """(first_occ2d(w), xs, ys): w occurs at (x, y) with x < row_bound and
    y < col_bound exactly when x is in xs and y in ys, both ascending.

    xs are the occurrences of w's first-column word, ys those of its
    first-row word; each frame word is searched for once.  A pair needs
    both axes, so when either bound is 0 both axes are empty.
    """
    # the lower bound stands for both: no axis is listed at 0 or below
    if (low := min(row_bound, col_bound)) <= 0:
        row_bound = col_bound = low
    f = frame_tl(w)
    col = _first_occ(f.frame_l, col_alphabet_of(f.s_joint))
    row = _first_occ(f.frame_t, row_alphabet_of(f.s_joint))
    return ((col[1], row[1]), _occ_from(col, row_bound),
            _occ_from(row, col_bound))


def occ2d(w: Grid, row_bound: int, col_bound: int) -> tuple[tuple[int, int], ...]:
    """Every 0-based occurrence (row, col) with row < row_bound and
    col < col_bound, ascending row-major: the product of occ_axes.
    """
    _, xs, ys = occ_axes(w, row_bound, col_bound)
    return tuple((x, y) for x in xs for y in ys)
