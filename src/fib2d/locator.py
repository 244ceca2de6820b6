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
from .word1d import first_occ1d, occ1d
from .word2d import Grid, col_alphabet_of, row_alphabet_of


def first_occ2d(w: Grid) -> tuple[int, int]:
    """0-based (row, column) offset of the first occurrence of w.

    The corner letter selects which of the four line words each frame word
    is searched in: the first column in a column word over {d,b} or {c,a},
    the first row in a row word over {d,c} or {b,a}.
    """
    f = frame_tl(w)
    return (first_occ1d(f.frame_l, col_alphabet_of(f.s_joint)),
            first_occ1d(f.frame_t, row_alphabet_of(f.s_joint)))


def occ2d(w: Grid, row_bound: int, col_bound: int) -> tuple[tuple[int, int], ...]:
    """Every 0-based occurrence (row, col) with row < row_bound and
    col < col_bound, ascending row-major.

    The factor sits at (x, y) iff x is an occurrence of its first-column
    word and y one of its first-row word; both 1D sets come from occ1d.
    """
    if row_bound < 0 or col_bound < 0:
        raise ValueError("bounds must be >= 0")
    f = frame_tl(w)
    xs = occ1d(f.frame_l, col_alphabet_of(f.s_joint), row_bound)
    ys = occ1d(f.frame_t, row_alphabet_of(f.s_joint), col_bound)
    return tuple((x, y) for x in xs for y in ys)
