"""Frame decomposition of grid factors and enumeration by extension.

A factor is pinned down by its first row and first column, which share the
corner letter: word2d.fill rebuilds the other rows from them.  Growing the
two frame words on the right and bottom grows the factor, and doing that
over a complete size class yields the next complete size class.
Enumeration starts from the frames of the complete one-line class, whose
factors are the 1D factors of the two row words (or of the two column
words), extends them diagonally until the shorter side reaches its size,
and only then fills each frame into its grid.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import IncompleteInput, InconsistentJoint, InternalError
from .word1d import factors1d, right_extensions, special_factor
from .word2d import (COL_ALPHABETS, ROW_ALPHABETS, Grid, classify_lines,
                     col_alphabet_of, column, fill, row_alphabet_of)
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


def _extend(fs):
    """The paper's extension rule, applied to every frame of the sequence
    fs at once.

    Checks each frame first: both words non-empty and starting with the
    joint letter.  Then grows each distinct frame_t over its row alphabet
    and each distinct frame_l over its column alphabet once, as u + x for
    each right extension x; right_extensions raises NotAFactor for a word
    that is not a factor.  Both run before this returns; the iterator it
    returns yields the extensions of each frame, in input order, as the
    product of its grown top and side words, so frames with an equal word
    share one grown string.
    """
    for frame_t, frame_l, s in fs:
        if not frame_t or not frame_l:
            raise ValueError("frame words must be non-empty")
        if not frame_t[0] == frame_l[0] == s:
            raise InconsistentJoint(
                f"frames start with {frame_t[0]!r} and {frame_l[0]!r}, "
                f"joint {s!r}")
    tops = {u: [u + x for x in right_extensions(u, row_alphabet_of(u[0]))]
            for u in dict.fromkeys(f.frame_t for f in fs)}
    sides = {u: [u + y for y in right_extensions(u, col_alphabet_of(u[0]))]
             for u in dict.fromkeys(f.frame_l for f in fs)}
    return (FrameTL(t, l, s) for top, side, s in fs
            for t in tops[top] for l in sides[side])


def fill_from_frame(f: FrameTL) -> Grid:
    """Reconstruct the whole grid from its top-left frame, after checking
    it the way extension does: non-empty words, the joint letter, and both
    words factors of their line words.

    Inverse of frame_tl.
    """
    _extend((f,))
    return fill(f.frame_t, f.frame_l)


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

def extensions_of(f: FrameTL) -> tuple[FrameTL, ...]:
    """The one-step diagonal extensions of the (k,l) factor with frame f.

    Count by type: I gives 1, II and III give 2, IV gives 4.
    Checked and grown by the same rule as each step of extend_diagonal.
    """
    return tuple(_extend((f,)))


def extend_diagonal(frames) -> tuple[FrameTL, ...]:
    """Frames of the complete size-(k,l) class in, frames of the complete
    size-(k+1,l+1) class out, in the order their sources come in.

    Every frame is checked before any is grown, and each distinct frame
    word is grown once per step.  A line word has one right-special factor
    of each length, hence l+1 factors of length l, so the (k+1)(l+1)
    frames cost at most 2(k+l+2) right_extensions lookups.
    """
    fs = tuple(frames)
    if not fs:
        raise IncompleteInput("got no subwords at all")
    k, l = len(fs[0].frame_l), len(fs[0].frame_t)
    if any((len(f.frame_l), len(f.frame_t)) != (k, l) for f in fs):
        raise IncompleteInput("subwords have mixed sizes")
    if len(set(fs)) != (k + 1) * (l + 1):
        raise IncompleteInput(
            f"size ({k},{l}) has {(k + 1) * (l + 1)} subwords, "
            f"got {len(set(fs))}")
    out = dict.fromkeys(_extend(fs))
    if len(out) != (k + 2) * (l + 2):
        raise InternalError(
            f"size ({k + 1},{l + 1}) has {(k + 2) * (l + 2)} subwords, "
            f"extension gave {len(out)}")
    return tuple(out)


def enumerate_extension(k: int, l: int) -> tuple[Grid, ...]:
    """All (k+1)(l+1) subwords of size (k,l), found by repeated extension.

    With m = min(k,l), starts from the frames of the complete one-line size
    class (k-m+1, l-m+1): the 1D factors of the two row words when k <= l,
    of the two column words otherwise.  Then extends them diagonally m-1
    times and fills each final frame once.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    m = min(k, l)
    if k <= l:
        fs = [FrameTL(u, u[0], u[0]) for alph in ROW_ALPHABETS
              for u in factors1d(l - m + 1, alph)]
    else:
        fs = [FrameTL(u[0], u, u[0]) for alph in COL_ALPHABETS
              for u in factors1d(k - m + 1, alph)]
    for _ in range(m - 1):
        fs = extend_diagonal(fs)
    if len(fs) != (k + 1) * (l + 1):
        raise InternalError(
            f"size ({k},{l}) has {(k + 1) * (l + 1)} subwords, "
            f"extension gave {len(fs)}")
    return tuple(sorted(fill(f.frame_t, f.frame_l) for f in fs))
