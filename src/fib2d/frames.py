"""Frame decomposition of grid factors and enumeration by extension.

A factor is pinned down by its first row and first column, which share the
corner letter: word2d.fill rebuilds the other rows from them.  Growing the
two frame words on the right and bottom grows the factor, and doing that
over a complete size class yields the next complete size class.
Enumeration starts from the complete one-line class, whose factors are the
1D factors of the two row words (or of the two column words), and extends
it diagonally until the shorter side reaches its size.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import (IncompleteInput, InconsistentJoint, InternalError,
                     NotAFactor)
from .word1d import factors1d, right_extensions, special_factor
from .word2d import (COL_ALPHABETS, ROW_ALPHABETS, Grid, classify_lines,
                     col_alphabet_of, column, dims, fill, row_alphabet_of)
# unused here; perfbench/selftest.py checks that the tracer wraps this binding
from .word2d import subblock  # noqa: F401


class FrameTL(NamedTuple):
    """First row, first column, and their shared corner letter."""

    frame_t: str
    frame_l: str
    s_joint: str


def frame_tl(w: Grid) -> FrameTL:
    """Top and left frame words of a non-empty, well-structured grid."""
    classify_lines(w)
    return FrameTL(w[0], column(w, 1), w[0][0])


def fill_from_frame(f: FrameTL) -> Grid:
    """Reconstruct the whole grid from its top-left frame, after checking
    that both frame words are factors of their line words.

    Inverse of frame_tl.
    """
    frame_t, frame_l, s = f
    if not frame_t or not frame_l:
        raise ValueError("frame words must be non-empty")
    if not frame_t[0] == frame_l[0] == s:
        raise InconsistentJoint(
            f"frames start with {frame_t[0]!r} and {frame_l[0]!r}, joint {s!r}")
    row_alph = row_alphabet_of(s)
    col_alph = col_alphabet_of(s)
    if frame_t not in factors1d(len(frame_t), row_alph):
        raise NotAFactor(f"{frame_t!r} is not a row word over {row_alph!r}")
    if frame_l not in factors1d(len(frame_l), col_alph):
        raise NotAFactor(f"{frame_l!r} is not a column word over {col_alph!r}")
    return fill(frame_t, frame_l)


def classify_frame(f: FrameTL) -> str:
    """Type I, II, III or IV: which of the frame words are special factors.

    "Special" means extendable by both letters of its alphabet; II has only
    a special frame_l, III only a special frame_t, IV both, I neither.
    """
    t_special = f.frame_t == special_factor(
        len(f.frame_t), row_alphabet_of(f.frame_t[0]))
    l_special = f.frame_l == special_factor(
        len(f.frame_l), col_alphabet_of(f.frame_l[0]))
    if t_special and l_special:
        return "IV"
    if t_special:
        return "III"
    if l_special:
        return "II"
    return "I"


# -------------------------------------------------------------- extension --

def extensions_of(w: Grid) -> tuple[Grid, ...]:
    """The one-step diagonal extensions of a single (k,l) factor.

    Count by type: I gives 1, II and III give 2, IV gives 4.
    """
    f = frame_tl(w)
    out = []
    for x in right_extensions(f.frame_t, row_alphabet_of(f.s_joint)):
        for y in right_extensions(f.frame_l, col_alphabet_of(f.s_joint)):
            out.append(fill_from_frame(
                FrameTL(f.frame_t + x, f.frame_l + y, f.s_joint)))
    return tuple(sorted(out))


def extend_diagonal(s) -> tuple[Grid, ...]:
    """Complete size-(k,l) set in, complete size-(k+1,l+1) set out."""
    words = tuple(s)
    if not words:
        raise IncompleteInput("got no subwords at all")
    k, l = dims(words[0])
    if any(dims(w) != (k, l) for w in words):
        raise IncompleteInput("subwords have mixed sizes")
    if len(set(words)) != (k + 1) * (l + 1):
        raise IncompleteInput(
            f"size ({k},{l}) has {(k + 1) * (l + 1)} subwords, "
            f"got {len(set(words))}")
    out = set()
    for w in words:
        out.update(extensions_of(w))
    if len(out) != (k + 2) * (l + 2):
        raise InternalError(
            f"size ({k + 1},{l + 1}) has {(k + 2) * (l + 2)} subwords, "
            f"extension gave {len(out)}")
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def enumerate_extension(k: int, l: int) -> tuple[Grid, ...]:
    """All (k+1)(l+1) subwords of size (k,l), found by repeated extension.

    With m = min(k,l), starts from the complete one-line size class
    (k-m+1, l-m+1): the 1D factors of the two row words when k <= l, of the
    two column words otherwise.  Then extends it diagonally m-1 times.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    m = min(k, l)
    if k <= l:
        words = [(u,) for alph in ROW_ALPHABETS
                 for u in factors1d(l - m + 1, alph)]
    else:
        words = [tuple(u) for alph in COL_ALPHABETS
                 for u in factors1d(k - m + 1, alph)]
    for _ in range(m - 1):
        words = extend_diagonal(words)
    if len(words) != (k + 1) * (l + 1):
        raise InternalError(
            f"size ({k},{l}) has {(k + 1) * (l + 1)} subwords, "
            f"extension gave {len(words)}")
    return tuple(sorted(words))
