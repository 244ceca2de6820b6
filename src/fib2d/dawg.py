"""Suffix DAWGs of the abstract line words and their products.

Reading across the infinite grid, each column is one of two words, so a row
is a word over two column-classes: {d,b} (written "d,b") and {c,a}.  Going
down, each row is one of two words, giving the classes {d,c} and {b,a}.
The two truncated DAWGs recognize factors of those abstract words.  Hanging
the column DAWG at every node of the row DAWG gives a graph whose root paths
of shape (l across, then k down) are exactly the size-(k,l) subwords.  Every
hung copy is the same graph, so those paths are the pairs of an across root
path and a down root path: enumeration walks the two line DAWGs and pairs
their paths.  The product is only displayed: `dawg-dot` lists its nodes
and edges in DOT order straight from the two line DAWGs, and
rooted_product collects that same listing.  Each path is spelled once,
across paths over dc and down paths over db.  The frame family's reader,
word2d.stream_fills, adds their swaps, pairs each top with the sides
that start with its last letter, the corner letter, and cuts each text
from its top's lane, whose last column is checked, as a stream in sorted
order, so only the paths, a lane and a text are held, and a caller
writes nothing before the first text exists.

A line DAWG is its spine and O(log L) shortcuts (Blumer et al., TCS 1985;
Rytter, TCS 2006), so it is computed from them, not stored (_LineDawg),
and its DOT text is read off its out-edges in order: no graph is stored.
"""

from __future__ import annotations

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
    whose class is spine letter i, and some nodes a shortcut as well."""

    root = 0

    def __init__(self, classes, spine: str, shortcuts: dict):
        self.classes, self._spine, self._shortcuts = classes, spine, shortcuts
        self.top = len(spine)
        self.nodes = range(self.top + 1)

    def out(self, i) -> list:
        """Node i's (target, label) pairs, spine edge first."""
        spine = [] if i >= self.top else [
            (i + 1, self.classes[self._spine[i] == "c"])]
        return spine + self._shortcuts.get(i, [])


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


def _run(g: _LineDawg, node, length: int):
    """The labels along single out-edges from node, at most `length` of
    them, and the out-edges of the node where they stop."""
    chain = []
    edges = g.out(node)
    while len(edges) == 1 and len(chain) < length:
        node, lab = edges[0]
        chain.append(lab)
        edges = g.out(node)
    return chain, edges


def _walk(g: _LineDawg, length: int, spell) -> tuple:
    """Every root path with `length` edges, depth first, as a sequence that
    `spell` makes from label sequences: spell(labels) + spell(more) must
    spell labels + more.

    A line DAWG is a spine with O(log L) shortcut edges, so most nodes have
    one out-edge.  The run of single edges from each node the walk reaches
    is found and spelled once and copied into the path as one piece, so the
    walk steps once per branch point, not once per path prefix.  A run
    stops after `length` labels, so a cycle of single edges ends too.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    out = []
    runs = {}
    stack = [(g.root, spell(()))]
    while stack:
        node, path = stack.pop()
        run = runs.get(node)
        if run is None:
            chain, edges = _run(g, node, length)
            run = runs[node] = (spell(chain), [(dst, spell((lab,)))
                                               for dst, lab in reversed(edges)])
        path += run[0]
        if len(path) >= length:
            out.append(path[:length])
            continue
        stack += [(dst, path + step) for dst, step in run[1]]
    return tuple(out)


# ----------------------------------------------------------------- product --

def _product_listing(base: _LineDawg, hung: _LineDawg):
    """(names, nodes, edges) of the rooted product of base and hung: the
    DOT text of each class, and the nodes and the edges, each an iterator
    in the DOT text's order, listed from the two line DAWGs alone.

    A copy of `hung` hangs at every node of `base` but its root.  Base
    edges run between the copy roots; within a copy only hung edges exist,
    so root paths take all their base steps first.  No root path of
    positive base length enters a copy at the base root, so none is hung
    there.  Node (u, v) is node v of the copy at u, so the nodes come copy
    by copy.  Every edge of a line DAWG runs to a higher node, and out
    lists a node's edges by target, so the edges of (u, v) within its copy
    come first and those to the copy roots (u2, 0), u2 > u, after them.
    """
    names = _names([*base.classes, *hung.classes])
    r = hung.root
    down = [hung.out(v) for v in hung.nodes]

    def nodes():
        for u in base.nodes:
            for v in ((r,) if u == base.root else hung.nodes):
                yield u, v

    def edges():
        for u, v in nodes():
            if u != base.root:
                for v2, lab in down[v]:
                    yield (u, v), (u, v2), lab
            if v == r:
                for u2, lab in base.out(u):
                    yield (u, v), (u2, r), lab

    return names, nodes(), edges()


def rooted_product(base: _LineDawg, hung: _LineDawg) -> SimpleNamespace:
    """Hang a copy of `hung` at every node of `base` but its root: the
    root, the set of nodes and the list of (source, target, label) edges,
    as _product_listing lists them."""
    _, nodes, edges = _product_listing(base, hung)
    return SimpleNamespace(root=(base.root, hung.root), nodes=set(nodes),
                           edges=list(edges))


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
    """The line DAWG's root paths with `length` edges, each spelled over
    the line `alphabet`, which has one letter in each of the
    orientation's two classes."""
    letter = _LETTER[alphabet].__getitem__
    return _walk(build_line_dawg(orientation, length), length,
                 lambda labels: "".join(map(letter, labels)))


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


# ----------------------------------------------------------------- export --

def _fmt_node(v) -> str:
    if isinstance(v, tuple):
        return f"({v[0]},{v[1]})"
    return str(v)


def _names(labels) -> dict:
    """Each distinct label -> its DOT text, the letters comma joined,
    dominant first."""
    return {lab: ",".join(sorted(lab, reverse=True)) for lab in set(labels)}


def _dot(root, names, nodes, edges):
    """DOT text, line by line, of nodes and edges already in order, with
    the label texts `names`."""
    yield "digraph {\n"
    yield "  rankdir=LR;\n"
    for v in nodes:
        shape = "doublecircle" if v == root else "circle"
        yield f'  "{_fmt_node(v)}" [shape={shape}];\n'
    for u, v, lab in edges:
        yield f'  "{_fmt_node(u)}" -> "{_fmt_node(v)}" [label="{names[lab]}"];\n'
    yield "}\n"


def export_dot(g: _LineDawg):
    """Deterministic DOT text of a line DAWG, yielded line by line, each
    line ending in a newline; class labels comma joined, dominant first.
    The nodes are 0..top, and every edge runs to a higher node, out's spine
    edge first, so out lists the edges in order and none is held."""
    return _dot(g.root, _names(g.classes), g.nodes,
                ((u, v, lab) for u in g.nodes for v, lab in g.out(u)))


def export_product_dot(base: _LineDawg, hung: _LineDawg):
    """DOT text of rooted_product(base, hung), listed straight from the two
    graphs without building the product."""
    return _dot((base.root, hung.root), *_product_listing(base, hung))
