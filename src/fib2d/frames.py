"""Frame decomposition of grid factors and enumeration by extension.

A factor is pinned down by its first row and first column, which share the
corner letter: word2d.fill rebuilds the other rows from them.  Growing the
two frame words on the right and bottom grows the factor; a frame has
|ext(top)| * |ext(side)| extensions, the paper's 1, 2, 2 or 4 by type: a
word has two only as the reversed prefix of its length (word1d), so a list
of words grows from one prefix.  The frames with corner letter x are
exactly the pairs of a row factor and a column factor that both start with
x, and the words of one line alphabet are those of the other under a letter
swap that commutes with growing.  So a complete size class is the row
factors over dc and the column factors over db, and growing every word of
both once yields the next complete class.  Enumeration starts from the
complete one-line class, grows it diagonally until the shorter side reaches
its size, and only then hands the two lists to the frame family's reader,
word2d.stream_fills, which adds the swaps, pairs the words by corner letter
and cuts each pair's text from its top's lane, whose first column is
checked, as a stream in sorted order, so only the two lists, a lane and a
text are ever held.
"""

from collections import namedtuple

from .errors import IncompleteInput, InconsistentJoint
from .word1d import _extend_block, factors1d
from .word2d import (Grid, classify_lines, col_alphabet_of, column,
                     count_law, fill, row_alphabet_of, stream_fills)
# unused here; perfbench/selftest.py checks that the tracer wraps this binding
from .word2d import subblock  # noqa: F401


FrameTL = namedtuple("FrameTL", "frame_t frame_l s_joint")
FrameTL.__doc__ = "First row, first column, and their shared corner letter."


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
    tops = _extend_block([frame_t], row_alphabet_of(s))
    sides = _extend_block([frame_l], col_alphabet_of(s))
    return tuple([FrameTL(t, l, s) for t in tops for l in sides])


def extend_diagonal(frames) -> tuple[FrameTL, ...]:
    """Frames of the complete size-(k,l) class in, frames of the complete
    size-(k+1,l+1) class out: extensions_of each frame, in the order the
    frames come in.

    The per-frame form of the step that enumerate_extension takes on its
    two whole lists of line words.
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

    The class is kept as one list of tops, the row factors over dc, and
    one of sides, the column factors over db; word2d.stream_fills adds
    their swaps and pairs each top with the sides that start with its
    first letter, each pair the frame of one subword.  With m = min(k,l),
    the lists start from the complete one-line class (k-m+1, l-m+1), whose
    words are the 1D factors of length |k-l|+1 and single letters.  Each
    of the m-1 diagonal steps grows every word of both lists once, in
    place, so one list of each is held, not two.
    word2d.count_law checks the distinct pairs of every size on the way,
    before the first text; stream_fills then cuts each pair of the final
    lists into its text, in sorted order, from its top's lane.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    m = min(k, l)
    tops = list(factors1d(l - m + 1, "dc"))
    sides = list(factors1d(k - m + 1, "db"))
    for a, b in zip(range(k - m + 1, k + 1), range(l - m + 1, l + 1)):
        count_law(len(set(tops)) * len(set(sides)), a, b, "extension")
        if a < k:
            tops, sides = _extend_block(tops, "dc"), _extend_block(sides, "db")
    return stream_fills(tops, sides, 0)


def enumerate_extension(k: int, l: int) -> tuple[str, ...]:
    """The texts of all (k+1)(l+1) subwords of size (k,l), sorted, found by
    repeated extension: stream_extension as a tuple."""
    return tuple(stream_extension(k, l))
