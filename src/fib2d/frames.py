"""Frame decomposition of grid factors and enumeration by extension.

A factor is pinned down by its first row and first column, which share the
corner letter: word2d.fill rebuilds the other rows from them.  Growing the
two frame words on the right and bottom grows the factor; a frame has
|ext(top)| * |ext(side)| extensions, the paper's 1, 2, 2 or 4 by type: a
word has two only as the reversed prefix of its length (word1d), so a block
grows from one prefix.  The frames with corner letter x are exactly the
pairs of a row factor and a column factor that both start with x, so a
complete size class is four blocks of words, one per corner letter, and
growing every word of every block once yields the next complete class.
Enumeration starts from the blocks of the complete one-line class, grows
them diagonally until the shorter side reaches its size, and only then cuts
each pair's text from its top's lane, whose first column is checked, as a
stream in sorted order (word2d.stream_fills), so only the blocks, a lane
and a text are ever held.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import IncompleteInput, InconsistentJoint
from .word1d import LETTERS, _extend_block, factors1d
from .word2d import (COL_ALPHABETS, ROW_ALPHABETS, Grid, classify_lines,
                     col_alphabet_of, column, count_law, fill,
                     row_alphabet_of, stream_fills)
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
    it the way extensions_of does: non-empty words, the joint letter, and
    both words factors of their line words.

    Inverse of frame_tl.
    """
    extensions_of(f)
    return fill(f.frame_t, f.frame_l)


# -------------------------------------------------------------- extension --

def extensions_of(f: FrameTL) -> tuple[FrameTL, ...]:
    """The one-step diagonal extensions of the (k,l) factor with frame f:
    each grown top with each grown side, after checking that both words are
    non-empty and start with the joint letter.

    Count by type: I gives 1, II and III give 2, IV gives 4.
    """
    frame_t, frame_l, s = f
    if not frame_t or not frame_l:
        raise ValueError("frame words must be non-empty")
    if not frame_t[0] == frame_l[0] == s:
        raise InconsistentJoint(
            f"frames start with {frame_t[0]!r} and {frame_l[0]!r}, "
            f"joint {s!r}")
    tops = _extend_block((frame_t,), row_alphabet_of(s))
    sides = _extend_block((frame_l,), col_alphabet_of(s))
    return tuple([FrameTL(t, l, s) for t in tops for l in sides])


def extend_diagonal(frames) -> tuple[FrameTL, ...]:
    """Frames of the complete size-(k,l) class in, frames of the complete
    size-(k+1,l+1) class out: extensions_of each frame, in the order the
    frames come in.

    The per-frame form of the step that enumerate_extension takes on whole
    corner-letter blocks.
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
    out = dict.fromkeys(g for f in fs for g in extensions_of(f))
    count_law(len(out), k + 1, l + 1, "extension")
    return tuple(out)


def stream_extension(k: int, l: int):
    """The texts of all (k+1)(l+1) subwords of size (k,l), found by
    repeated extension, as a stream in sorted order.

    The class is kept as one block (tops, sides) per corner letter x: the
    row and the column factors that start with x, each pair of which is the
    frame of one subword.  With m = min(k,l), the blocks start from the
    complete one-line class (k-m+1, l-m+1), whose words are the 1D factors
    of length |k-l|+1 and single letters.  Each of the m-1 diagonal steps
    grows every word of every block once.  word2d.count_law checks the
    distinct pairs of the blocks of every size on the way, before the
    first text; word2d.stream_fills then cuts each pair of a final block
    into its text, in sorted order, from its top's lane.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    m = min(k, l)
    tops = [u for alph in ROW_ALPHABETS for u in factors1d(l - m + 1, alph)]
    sides = [u for alph in COL_ALPHABETS for u in factors1d(k - m + 1, alph)]
    blocks = [([u for u in tops if u[0] == x], [u for u in sides if u[0] == x])
              for x in LETTERS]
    for a, b in zip(range(k - m + 1, k + 1), range(l - m + 1, l + 1)):
        count_law(sum(len(set(ts)) * len(set(ss)) for ts, ss in blocks),
                  a, b, "extension")
        if a < k:
            blocks = [(_extend_block(ts, row_alphabet_of(x)),
                       _extend_block(ss, col_alphabet_of(x)))
                      for x, (ts, ss) in zip(LETTERS, blocks)]
    return stream_fills(blocks, 0)


def enumerate_extension(k: int, l: int) -> tuple[str, ...]:
    """The texts of all (k+1)(l+1) subwords of size (k,l), sorted, found by
    repeated extension: stream_extension as a tuple."""
    return tuple(stream_extension(k, l))
