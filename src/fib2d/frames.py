"""Frame decomposition of grid factors and enumeration by extension.

A factor is pinned down by its first row and first column, which share the
corner letter: word2d.fill rebuilds the other rows from them.  Growing the
two frame words on the right and bottom grows the factor; a frame has
|ext(top)| * |ext(side)| extensions, the paper's 1, 2, 2 or 4 by type: a
word has two only as the reversed prefix of its length (word1d).  The
frames with corner letter x are exactly the pairs of a row factor and a
column factor that both start with x, and the words of one line alphabet
are those of the other under a letter swap that commutes with growing.  So
a complete size class is the row factors over dc and the column factors
over db, and growing every word of both once yields the next complete
class.  As first occurrences, which a word keeps as it grows by one
letter, each length adds one word, the reversed prefix's other extension
(word1d._special).  Enumeration builds one list of these offsets per line
alphabet, checks the count law of each size from the one-line class up
the diagonal, and hands both lists to the frame family's reader,
word2d.stream_fills, as dawg hands it its root paths.  It adds the swaps,
pairs the words by corner letter and cuts each pair's text from its top's
lane, whose first column is checked, as a stream in sorted order, so only
the two lists, a lane and a text are ever held.
"""

from collections import namedtuple

from .errors import IncompleteInput, InconsistentJoint
from .word1d import _special, factor_prefix, right_extensions
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
    xs = right_extensions(frame_t, row_alphabet_of(s))
    ys = right_extensions(frame_l, col_alphabet_of(s))
    return tuple([FrameTL(frame_t + x, frame_l + y, s)
                  for x in xs for y in ys])


def extend_diagonal(frames) -> tuple[FrameTL, ...]:
    """Frames of the complete size-(k,l) class in, frames of the complete
    size-(k+1,l+1) class out: extensions_of each frame, in the order the
    frames come in.

    The per-frame form of the growth that stream_extension reads off its
    two lists of first occurrences.
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
    one of sides, the column factors over db, each word held as its first
    occurrence in its line word's word1d.factor_prefix; word2d.stream_fills
    adds their swaps and pairs each top with the sides that start with its
    first letter, each pair the frame of one subword.  The letters sit at
    0 and 1, and each length n > 1 adds the first occurrence of the other
    extension of the reversed (n-1)-prefix, one find (word1d._special), so
    the words of length n are a list's first n + 1 offsets.
    word2d.count_law checks the distinct offsets of each size from the
    one-line class (k-m+1, l-m+1), m = min(k,l), up the diagonal, before
    the first text; stream_fills then cuts each pair into its text, in
    sorted order, from its top's lane.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    m = min(k, l)
    p, q = factor_prefix("dc", l), factor_prefix("db", k)
    tops = [0, 1] + [_special(p, b)[1] for b in range(1, l)]
    sides = [0, 1] + [_special(q, a)[1] for a in range(1, k)]
    for a, b in zip(range(k - m + 1, k + 1), range(l - m + 1, l + 1)):
        count_law(len(set(tops[:b + 1])) * len(set(sides[:a + 1])), a, b,
                  "extension")
    return stream_fills(tops, sides, k, l, 0)


def enumerate_extension(k: int, l: int) -> tuple[str, ...]:
    """The texts of all (k+1)(l+1) subwords of size (k,l), sorted, found by
    repeated extension: stream_extension as a tuple."""
    return tuple(stream_extension(k, l))
