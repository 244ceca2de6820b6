"""Suffix DAWGs of the abstract line words and their products.

Reading across the infinite grid, each column is one of two words, so a row
is a word over two column-classes: {d,b} (written "d,b") and {c,a}.  Going
down, each row is one of two words, giving the classes {d,c} and {b,a}.
The two truncated DAWGs recognize factors of those abstract words.  Hanging
the column DAWG at every node of the row DAWG gives a graph whose root paths
of shape (l across, then k down) are exactly the size-(k,l) subwords.  Every
hung copy is the same graph, so those paths are the pairs of an across root
path and a down root path: enumeration walks the two line DAWGs and pairs
their paths.  The product is only displayed: `dawg-dot` writes each hung
copy from one template, which it formats once, and rooted_product builds
its nodes and edges straight from the two line DAWGs.  Each path is spelled
once, across paths over dc and down paths over db.  The frame family's
reader, word2d.stream_fills, adds their swaps, pairs each top with the
sides that start with its last letter, the corner letter, and cuts each
text from its top's lane, whose last column is checked, as a stream in
sorted order, so only the paths, a lane and a text are held, and a caller
writes nothing before the first text exists.

A line DAWG is its spine and O(log L) shortcuts (Blumer et al., TCS 1985;
Rytter, TCS 2006), so it is computed from them, not stored (_LineDawg).
Its DOT text is read off its out-edges in order, and its root paths copy
the spine, spelled once, a slice per branch point: no graph is stored.
"""

from bisect import bisect_left
from itertools import islice
from types import SimpleNamespace

from .errors import InconsistentJoint, InternalError
from .word1d import fib, fib_index, fib_prefix
from .word2d import (COL_ALPHABETS, ROW_ALPHABETS, Grid, col_alphabet_of,
                     column, count_law, fill, row_alphabet_of, stream_fills)

# abstract classes per orientation, dominant first
_CLASSES = {"rows": COL_ALPHABETS, "cols": ROW_ALPHABETS}

# line alphabet the paths are spelled over -> {class label: the one letter
# of the class in that alphabet}, for each of the four classes that has one
_LETTER = {alph: {lab: "".join(lab & set(alph))
                  for lab in map(frozenset, ROW_ALPHABETS + COL_ALPHABETS)
                  if len(lab & set(alph)) == 1}
           for alph in ("dc", "db")}


# -------------------------------------------------------------- line DAWG --

class _LineDawg:
    """A truncated line DAWG, computed from its spine and shortcuts, not
    stored: nodes are 0..top, node i < top has the spine edge i -> i+1,
    whose class is spine letter i's, and some nodes a shortcut as well."""

    root = 0

    def __init__(self, classes, spine: str, shortcuts: dict):
        self.classes, self.spine, self.shortcuts = classes, spine, shortcuts
        self.top = len(spine)
        self.nodes = range(self.top + 1)

    def label(self, ch: str) -> frozenset:
        """The class of a spine edge whose spine letter is ch."""
        return self.classes[ch == "c"]

    def out(self, i) -> list:
        """Node i's (target, label) pairs, spine edge first."""
        spine = [] if i >= self.top else [(i + 1, self.label(self.spine[i]))]
        return spine + self.shortcuts.get(i, [])


def build_line_dawg(orientation: str, max_len: int) -> _LineDawg:
    """Truncated DAWG of the abstract line word, keeping every root path
    of length <= max_len intact.
    """
    if orientation not in _CLASSES:
        raise ValueError("orientation must be 'rows' or 'cols'")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    classes = tuple(frozenset(s) for s in _CLASSES[orientation])
    m = fib_index(max_len, "F12") - 1
    # with F(m) <= L < F(m+1), length-L root paths reach F(m+2)-1 + L - F(m)
    top = fib(m + 2, "F12") - 1 + max_len - fib(m, "F12")
    # node F(j)-2 has the shortcut to F(j+1)-1, for every j >= 1 with
    # F(j+1)-1 <= top, of the dominant class when j is even
    shortcuts = {fib(j, "F12") - 2: [(fib(j + 1, "F12") - 1, classes[j % 2])]
                 for j in range(1, fib_index(top + 1, "F12") - 1)}
    # 'd' stands in for the dominant class in the abstract spine word
    return _LineDawg(classes, fib_prefix("dc", top), shortcuts)


# ------------------------------------------------------- path to subword --

def _label(x) -> frozenset:
    if type(x) not in (str, frozenset):
        raise ValueError("a label is a letter or a frozenset of letters")
    if isinstance(x, str) and len(x) != 1:
        raise ValueError("a concrete label is a single letter")
    lab = frozenset(x)
    if not lab.issubset("abcd"):
        raise ValueError(f"label {set(lab)} has a letter outside 'abcd'")
    return lab


def _spell(labels, alphabet: str) -> str:
    """The letters the labels pick from one line alphabet, each distinct
    label checked once, in path order."""
    if not {str, frozenset}.issuperset(map(type, labels)):  # so they hash
        raise ValueError("a label is a letter or a frozenset of letters")
    letter = {}
    for x in dict.fromkeys(labels):
        picked = _label(x) & set(alphabet)
        if len(picked) > 1:
            raise ValueError(f"label {set(x)} is ambiguous over {alphabet!r}")
        if not picked:
            raise InconsistentJoint(
                f"label {set(x)} has no letter in alphabet {alphabet!r}")
        letter[x] = "".join(picked)
    return "".join(map(letter.__getitem__, labels))


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

def _line_words(orientation: str, length: int, alphabet: str) -> tuple:
    """The line DAWG's root paths with `length` edges, depth first, each
    spelled over the line `alphabet`, which has one letter in each of the
    orientation's two classes.

    Most nodes have only their spine edge, so the spine is spelled once and
    a path copies it a slice at a time, from a node to the next shortcut
    source or the top, then takes each out-edge there: the walk steps once
    per branch point, not once per path prefix.
    """
    g = build_line_dawg(orientation, length)
    letter = _LETTER[alphabet].__getitem__
    spine = g.spine.translate({ord(ch): letter(g.label(ch)) for ch in "dc"})
    stops = [*sorted(g.shortcuts), g.top]
    out, stack = [], [(g.root, "")]
    while stack:
        node, path = stack.pop()
        stop = min(stops[bisect_left(stops, node)], node + length - len(path))
        path += spine[node:stop]
        if len(path) == length:
            out.append(path)
            continue
        stack += [(v, path + letter(lab)) for v, lab in reversed(g.out(stop))]
    return tuple(out)


def stream_dawg(k: int, l: int):
    """The texts of all (k+1)(l+1) subwords of size (k,l), as a stream in
    sorted order: one per pair of a length-l root path of the row DAWG and
    a length-k root path of the column DAWG, as the module docstring says.

    The tops are the row paths over dc, the sides, last columns, the
    column paths over db.  word2d.count_law checks their distinct pairs
    before the first text, as many as the pairs that share a corner once
    word2d.stream_fills adds the swaps.  stream_fills then gives the texts
    in sorted order, checking per top that its lane's last column is the
    span its texts are cut from, so each text ends in its side.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    tops, sides = _line_words("rows", l, "dc"), _line_words("cols", k, "db")
    count_law(len(set(tops)) * len(set(sides)), k, l, "dawg")
    return stream_fills(tops, sides, l - 1)


def enumerate_dawg(k: int, l: int) -> tuple[str, ...]:
    """The texts of all (k+1)(l+1) subwords of size (k,l), sorted:
    stream_dawg as a tuple."""
    return tuple(stream_dawg(k, l))


# ------------------------------------------------------ product and export --

_BLOCK = 16  # lines of a hung copy's DOT text per piece
_HOLE = "#"  # a copy's base node in its template; no DOT text holds it


def _names(labels) -> dict:
    """Each distinct label -> its DOT text, the letters comma joined,
    dominant first."""
    return {lab: ",".join(sorted(lab, reverse=True)) for lab in set(labels)}


def export_dot(g: _LineDawg):
    """Deterministic DOT text of a line DAWG, yielded line by line, each
    line ending in a newline; class labels comma joined, dominant first.
    The nodes are 0..top, and every edge runs to a higher node, out's spine
    edge first, so out lists the edges in order and none is held."""
    names = _names(g.classes)
    yield "digraph {\n"
    yield "  rankdir=LR;\n"
    for v in g.nodes:
        shape = "doublecircle" if v == g.root else "circle"
        yield f'  "{v}" [shape={shape}];\n'
    for u in g.nodes:
        for v, lab in g.out(u):
            yield f'  "{u}" -> "{v}" [label="{names[lab]}"];\n'
    yield "}\n"


def rooted_product(base: _LineDawg, hung: _LineDawg) -> SimpleNamespace:
    """Hang a copy of `hung` at every node of `base` but its root, which no
    root path of positive base length enters: the root, the set of nodes,
    (u, v) node v of the copy at u, and the list of (source, target,
    label) edges, those between the copy roots first."""
    r, copies = hung.root, base.nodes[1:]  # a line DAWG's root comes first
    edges = [((u, r), (u2, r), lab) for u in base.nodes
             for u2, lab in base.out(u)]
    edges += [((u, v), (u, v2), lab) for u in copies for v in hung.nodes
              for v2, lab in hung.out(v)]
    return SimpleNamespace(root=(base.root, r), edges=edges, nodes={
        (base.root, r), *((u, v) for u in copies for v in hung.nodes)})


def export_product_dot(base: _LineDawg, hung: _LineDawg):
    """DOT text of rooted_product(base, hung) in pieces of whole lines,
    written from the two line DAWGs: the nodes copy by copy after the
    root, then each node's edges, those within its copy first, as every
    edge runs to a higher node; only a copy root (u, r) has base edges.
    Every copy is the same graph, so its node lines, then its edge lines,
    are formatted once with _HOLE for u, and written _BLOCK at a time."""
    names, r = _names([*base.classes, *hung.classes]), hung.root
    copies = base.nodes[1:]  # a line DAWG's root comes first

    def edge(u, v, u2, v2, lab):
        return f'  "({u},{v})" -> "({u2},{v2})" [label="{names[lab]}"];\n'

    def blocks(lines):  # joined _BLOCK at a time, never all held at once
        lines, out = iter(lines), []
        while block := "".join(islice(lines, _BLOCK)):
            out.append(block)
        return out

    def copy(u, template):
        return (block.replace(_HOLE, str(u)) for block in template)

    def across(u):
        return (edge(u, r, u2, r, lab) for u2, lab in base.out(u))

    yield ("digraph {\n  rankdir=LR;\n"
           f'  "({base.root},{r})" [shape=doublecircle];\n')
    nodes = blocks(f'  "({_HOLE},{v})" [shape=circle];\n'
                   for v in hung.nodes)
    for u in copies:
        yield from copy(u, nodes)
    del nodes  # every edge line comes after the last node line
    head, rest = (blocks(edge(_HOLE, v, _HOLE, v2, lab) for v in vs
                         for v2, lab in hung.out(v))
                  for vs in (hung.nodes[:1], hung.nodes[1:]))
    yield from across(base.root)
    for u in copies:
        yield from copy(u, head)
        yield from across(u)
        yield from copy(u, rest)
    yield "}\n"
