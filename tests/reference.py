"""Reference helpers shared by the test modules.

The library grows frames without naming their type, so the paper's frame
types live here, read straight off the definition, for the tests that
check the type table.  The per-pair DAWG decoding, which the library's
enumeration replaced, stays here as its differential reference.
"""

from __future__ import annotations

from fib2d.dawg import build_line_dawg, root_paths, subword_from_path
from fib2d.word1d import special_factor
from fib2d.word2d import col_alphabet_of, row_alphabet_of

# (frame_t special, frame_l special) -> the paper's frame type
_TYPES = {(False, False): "I", (False, True): "II",
          (True, False): "III", (True, True): "IV"}


def classify_frame(f) -> str:
    """Type I, II, III or IV: which of the frame words are special factors.

    "Special" means extendable by both letters of its alphabet; II has only
    a special frame_l, III only a special frame_t, IV both, I neither.
    """
    t_special = f.frame_t == special_factor(
        len(f.frame_t), row_alphabet_of(f.frame_t[0]))
    l_special = f.frame_l == special_factor(
        len(f.frame_l), col_alphabet_of(f.frame_l[0]))
    return _TYPES[t_special, l_special]


def enumerate_dawg_per_pair(k: int, l: int):
    """All size-(k,l) subwords, each (across, down) root path pair of the
    line DAWGs decoded on its own by subword_from_path, sorted."""
    across = root_paths(build_line_dawg("rows", l), l)
    down = root_paths(build_line_dawg("cols", k), k)
    return tuple(sorted({subword_from_path(h, v)
                         for h in across for v in down}))
