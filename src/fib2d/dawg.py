"""Suffix DAWGs of the abstract line words and their products.

Reading across the infinite grid, each column is one of two words, so a row
is a word over two column-classes: {d,b} (written "d,b") and {c,a}.  Going
down, each row is one of two words, giving the classes {d,c} and {b,a}.
The two truncated DAWGs recognize factors of those abstract words.  Hanging
the column DAWG at every node of the row DAWG gives a graph whose root paths
of shape (l across, then k down) are exactly the size-(k,l) subwords.  Every
hung copy is the same graph, so those paths are the pairs of an across root
path and a down root path: enumeration walks the two line DAWGs and pairs
their paths, and the product itself is built only for display.

Node arithmetic uses fib(n, "F12"): spine edges i-1 -> i carry the i-th
abstract letter, and shortcut edges F(j)-2 -> F(j+1)-1 carry the dominant
class when j is even, the other class when j is odd.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import InconsistentJoint, InternalError
from .word1d import fib, fib_prefix
from .word2d import (COL_ALPHABETS, ROW_ALPHABETS, Grid, col_alphabet_of,
                     column, fill, row_alphabet_of)

# abstract classes per orientation, dominant first
_CLASSES = {"rows": ("db", "ca"), "cols": ("dc", "ba")}

# line alphabet -> {label: the one letter of the label in that alphabet},
# for every label that has exactly one; labels are letters or letter sets
_LETTER = {alph: {lab: "".join(set(lab) & set(alph))
                  for lab in [*"abcd", *(frozenset(c) for r in range(1, 5)
                                         for c in combinations("abcd", r))]
                  if len(set(lab) & set(alph)) == 1}
           for alph in ROW_ALPHABETS + COL_ALPHABETS}


class Digraph:
    """Rooted digraph with frozenset edge labels and hashable node ids."""

    def __init__(self, root):
        self.root = root
        self.nodes = {root}
        self.edges = []
        self._out = {}

    def add_node(self, v) -> None:
        self.nodes.add(v)

    def add_edge(self, u, v, label) -> None:
        lab = frozenset(label)
        self.nodes.add(u)
        self.nodes.add(v)
        self.edges.append((u, v, lab))
        self._out.setdefault(u, []).append((v, lab))

    def out(self, u):
        return self._out.get(u, [])


# -------------------------------------------------------------- line DAWG --

def build_line_dawg(orientation: str, max_len: int) -> Digraph:
    """Truncated DAWG of the abstract line word, keeping every root path
    of length <= max_len intact.
    """
    if orientation not in _CLASSES:
        raise ValueError("orientation must be 'rows' or 'cols'")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    dominant, other = (frozenset(s) for s in _CLASSES[orientation])
    m = 0
    while fib(m + 1, "F12") <= max_len:
        m += 1
    # with F(m) <= L < F(m+1), length-L root paths reach F(m+2)-1 + L - F(m)
    top = fib(m + 2, "F12") - 1 + max_len - fib(m, "F12")
    # 'd' stands in for the dominant class in the abstract spine word
    spine = fib_prefix("dc", top)
    g = Digraph(0)
    for i in range(1, top + 1):
        g.add_edge(i - 1, i, dominant if spine[i - 1] == "d" else other)
    j = 1
    while fib(j + 1, "F12") - 1 <= top:
        g.add_edge(fib(j, "F12") - 2, fib(j + 1, "F12") - 1,
                   dominant if j % 2 == 0 else other)
        j += 1
    return g


def root_paths(g: Digraph, length: int) -> tuple[tuple[frozenset, ...], ...]:
    """Label sequences of all root paths with `length` edges, depth first."""
    out = []
    labels = [None] * length
    stack = [(g.root, 0, None)]
    while stack:
        node, depth, lab = stack.pop()
        if depth:
            labels[depth - 1] = lab
        if depth == length:
            out.append(tuple(labels))
            continue
        for dst, step in reversed(g.out(node)):
            stack.append((dst, depth + 1, step))
    return tuple(out)


# ----------------------------------------------------------------- product --

def rooted_product(base: Digraph, hung: Digraph) -> Digraph:
    """Hang a copy of `hung` at every node of `base` but its root.

    Base edges run between the copy roots; within a copy only hung edges
    exist, so root paths take all their base steps first.  No root path of
    positive base length enters a copy at the base root, so none is hung
    there.
    """
    g = Digraph((base.root, hung.root))
    for u in base.nodes:
        g.add_node((u, hung.root))
    for u, u2, lab in base.edges:
        g.add_edge((u, hung.root), (u2, hung.root), lab)
    for u in base.nodes - {base.root}:
        for v, v2, lab in hung.edges:
            g.add_edge((u, v), (u, v2), lab)
    return g


# ------------------------------------------------------- path to subword --

def _label(x) -> frozenset:
    if isinstance(x, str) and len(x) != 1:
        raise ValueError("a concrete label is a single letter")
    lab = frozenset(x)
    if not lab.issubset("abcd"):
        raise ValueError(f"label {set(lab)} has a letter outside 'abcd'")
    return lab


def _spell(labels, alphabet: str) -> str:
    """The letters the labels pick from one line alphabet."""
    try:
        return "".join(map(_LETTER[alphabet].__getitem__, labels))
    except (KeyError, TypeError):
        pass
    for lab in map(_label, labels):
        if len(lab & set(alphabet)) > 1:
            raise ValueError(f"label {set(lab)} is ambiguous over {alphabet!r}")
        if not lab & set(alphabet):
            raise InconsistentJoint(
                f"label {set(lab)} has no letter in alphabet {alphabet!r}")
    raise ValueError("a label is a letter or a frozenset of letters")


def subword_from_path(h_labels, v_labels) -> Grid:
    """The subword determined by an (across, down) root path pair.

    h_labels spell the first row, v_labels the last column; they overlap in
    the top right corner, so the last h-label and the first v-label must
    agree on exactly one letter.  That corner letter fixes the alphabet of
    every line and the whole grid follows.  Labels may be abstract classes
    (frozensets) or single letters.
    """
    if not h_labels or not v_labels:
        raise ValueError("both paths must be non-empty")
    h_end, v_start = _label(h_labels[-1]), _label(v_labels[0])
    joint = h_end & v_start
    if not joint:
        raise InconsistentJoint(
            f"row end {set(h_end)} and column start {set(v_start)} disagree")
    if len(joint) > 1:
        raise ValueError("corner letter is ambiguous")
    s = next(iter(joint))
    top = _spell(h_labels, row_alphabet_of(s))
    side = _spell(v_labels, col_alphabet_of(s))
    grid = fill(top, side)
    if column(grid, len(top)) != side:
        raise InternalError(f"grid {grid} does not end in column {side!r}")
    return grid


# ------------------------------------------------------------- enumeration --

@lru_cache(maxsize=None)
def enumerate_dawg(k: int, l: int) -> tuple[Grid, ...]:
    """All (k+1)(l+1) subwords of size (k,l), sorted row-major: one per pair
    of a length-l root path of the row DAWG and a length-k root path of the
    column DAWG."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    across = root_paths(build_line_dawg("rows", l), l)
    down = root_paths(build_line_dawg("cols", k), k)
    words = {subword_from_path(h, v) for h in across for v in down}
    if len(words) != (k + 1) * (l + 1):
        raise InternalError(
            f"{len(across) * len(down)} path pairs gave {len(words)} "
            f"subwords, expected {(k + 1) * (l + 1)}")
    return tuple(sorted(words))


# ----------------------------------------------------------------- export --

def _fmt_node(v) -> str:
    if isinstance(v, tuple):
        return f"({v[0]},{v[1]})"
    return str(v)


def _fmt_label(lab) -> str:
    return ",".join(sorted(lab, reverse=True))


def export_dot(g: Digraph) -> str:
    """Deterministic DOT text; class labels are comma joined, dominant first."""
    lines = ["digraph {", "  rankdir=LR;"]
    for v in sorted(g.nodes):
        shape = "doublecircle" if v == g.root else "circle"
        lines.append(f'  "{_fmt_node(v)}" [shape={shape}];')
    for u, v, lab in sorted(g.edges, key=lambda e: (e[0], e[1], _fmt_label(e[2]))):
        lines.append(f'  "{_fmt_node(u)}" -> "{_fmt_node(v)}" [label="{_fmt_label(lab)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
