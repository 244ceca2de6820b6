"""Reference helpers shared by the test modules.

Every enumeration's whole output is checked against the rotation coding
of tests/rotation.py, which shares nothing with the package.  Each
reference here checks one piece of the library by another reading of it,
most often the code that piece replaced.

Frames.  The library grows frames without naming their type, so
`classify_frame` reads the paper's frame types off the definition.  It
tests for `special_factor`, the right-special factor, read off
`right_table`: every factor's right extensions, read off the longer
factors, which growing a word by the letter after its first occurrence
replaced.

DAWGs.  `root_paths` is the generic walk over any graph's out-edges, with
a memo of runs, which the walk along the spelled spine replaced;
`spelled_paths` spells its paths over a line alphabet, and `adjacency`
gives a hand-built `Digraph` the root and out-edges the walk reads.
`suffix_automaton`, built online, checks the line DAWG computed from its
spine and shortcuts.  `enumerate_dawg_per_pair` is the per-pair path
decoding the DAWG enumeration replaced.  `edges` lists a line DAWG's
edges whole; `product_graph` and `dot_graph` store the rooted product
and each `dawg-dot` graph edge by edge, and `export_dot_text` formats one
as a single string: the forms that the DOT export, made straight from
the line DAWGs in pieces of whole lines, replaced.

1D words.  `factor_set` holds the factors as a set, and
`shortest_truncated_index_loop` tries truncated words in turn, as before
the index was read off the first occurrence.

Grids.  `as_grid_loop` checks letters one at a time, as before one
translate per row.  `conjugacy_class_rotations` is the sorted set of
every row/column rotation, which the grid's own-size windows taken
cyclically replaced.  `window_places` locates every window of a prefix by
slicing every place, for the arithmetic locator, and `band_occurrences`
finds a pattern among the windows of the column bands (`bands`), the
scan that the oracle's str.find over the prefix rows replaced.  `texts`
gives each grid's text.

The command line is read from one table; `argparse_parser` is the
parser it replaced.  Every memory pin and scaling gate measures one
request in a fresh interpreter (`fresh_peak`), so that it reads the same
in any test order.  Every child interpreter imports the package through
`PACKAGE_ENV`, and `run_optimized` runs a script under python -O.

Sharing rule.  A value that several tests of one module compute alike, a
reference or a library result they all check, is made once by a function
decorated with `shared` and kept until that module's tests end.  Every
assertion still runs on the library's output: sharing only drops the
second computation of the same value.  A shared value is filled only by
reference code or by library calls that no patch has changed: the fill
raises AssertionError while any global of the package differs from its
value at import, so a test that patches the package can read a shared
value but never make one.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import pkgutil
import subprocess
import sys
from types import SimpleNamespace

import fib2d
from fib2d import cli
from fib2d.dawg import _LETTER, build_line_dawg, subword_from_path
from fib2d.errors import InternalError, NotAFactor, ShapeMismatch
from fib2d.word1d import factors1d, truncated
from fib2d.word2d import (EMPTY, col_alphabet_of, dims, mu_prefix,
                          row_alphabet_of, to_text)


_PACKAGE = [fib2d] + [importlib.import_module(f"fib2d.{info.name}")
                      for info in pkgutil.iter_modules(fib2d.__path__)]


def _bindings() -> dict:
    """Every global of the package, a dict global by its items."""
    return {(module.__name__, name): dict(v) if isinstance(v, dict) else v
            for module in _PACKAGE for name, v in vars(module).items()
            if not name.startswith("__")}


_UNPATCHED = _bindings()
_SHARED = []


def shared(fn):
    """fn, with each value made once per arguments and kept until
    release(); a value is made only while the package is unpatched."""
    @functools.wraps(fn)
    def make(*args):
        if _bindings() != _UNPATCHED:
            raise AssertionError(f"{fn.__name__}{args} would be shared "
                                 f"from a patched package")
        return fn(*args)

    _SHARED.append(functools.cache(make))
    return _SHARED[-1]


def release() -> None:
    """Drop every shared value (conftest.py calls this as a module ends)."""
    for cached in _SHARED:
        cached.cache_clear()


def texts(grids) -> tuple[str, ...]:
    """The text of each grid, in order."""
    return tuple(map(to_text, grids))


def right_table(k: int, alphabet) -> dict[str, tuple[str, ...]]:
    """Every length-k factor -> its right extensions, in alphabet order:
    the length-(k+1) factors are sorted, so u + first comes before
    u + second."""
    table: dict[str, tuple[str, ...]] = {}
    for v in factors1d(k + 1, alphabet):
        table[v[:-1]] = table.get(v[:-1], ()) + (v[-1],)
    return table


def special_factor(k: int, alphabet) -> str:
    """The unique length-k factor extendable on the right by both letters."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = [u for u, xs in right_table(k, alphabet).items() if len(xs) == 2]
    if len(hits) != 1:
        raise InternalError(f"{len(hits)} right-special factors of length "
                            f"{k}, expected exactly 1")
    return hits[0]


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


class Digraph:
    """Rooted digraph with frozenset edge labels and hashable node ids,
    stored edge by edge."""

    def __init__(self, root):
        self.root = root
        self.nodes = {root}
        self.edges = []

    def add_edge(self, u, v, label) -> None:
        self.nodes.add(u)
        self.nodes.add(v)
        self.edges.append((u, v, frozenset(label)))


def edges(g) -> list:
    """Every (source, target, label) of the line DAWG g, node by node, in
    out's order."""
    return [(u, v, lab) for u in g.nodes for v, lab in g.out(u)]


def _run(g, node, length: int):
    """The labels along single out-edges from node, at most `length` of
    them, and the out-edges of the node where they stop."""
    chain = []
    edges = g.out(node)
    while len(edges) == 1 and len(chain) < length:
        node, lab = edges[0]
        chain.append(lab)
        edges = g.out(node)
    return chain, edges


def root_paths(g, length: int, spell) -> tuple:
    """All root paths with `length` edges, depth first, each made by spell
    from its list of labels: `tuple` gives label tuples, a function that
    joins each label's letter gives words.

    The walk reads any graph's root and out-edges.  The run of single
    edges from each node the walk reaches is found and spelled once and
    copied into the path as one piece, so the walk steps once per branch
    point, not once per path prefix.  A run stops after `length` labels.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    out = []
    runs = {}
    stack = [(g.root, spell([]))]
    while stack:
        node, path = stack.pop()
        run = runs.get(node)
        if run is None:
            chain, edges = _run(g, node, length)
            run = runs[node] = (spell(chain), [(dst, spell([lab])) for dst, lab
                                               in reversed(edges)])
        path += run[0]
        if len(path) >= length:
            out.append(path[:length])
            continue
        stack += [(dst, path + step) for dst, step in run[1]]
    return tuple(out)


def adjacency(g: Digraph) -> SimpleNamespace:
    """g's root and out(u), u's (target, label) pairs in the order added:
    the two things the walk reads of a line DAWG, for a graph built by
    hand."""
    out = {}
    for u, v, lab in g.edges:
        out.setdefault(u, []).append((v, lab))
    return SimpleNamespace(root=g.root, out=lambda u: out.get(u, []))


def enumerate_dawg_per_pair(k: int, l: int):
    """All size-(k,l) subwords, each (across, down) root path pair of the
    line DAWGs decoded on its own by subword_from_path, sorted."""
    across = root_paths(build_line_dawg("rows", l), l, tuple)
    down = root_paths(build_line_dawg("cols", k), k, tuple)
    return tuple(sorted({subword_from_path(h, v)
                         for h in across for v in down}))


def suffix_automaton(word: str) -> list[dict[str, int]]:
    """The transitions of the suffix automaton of word, built online
    (Blumer et al. 1985): state i < len(word) + 1 is the one made when
    the i-th letter was read, and any clone comes after them."""
    trans, link, depth, last = [{}], [-1], [0], 0
    for ch in word:
        cur = len(trans)
        trans.append({})
        link.append(0)
        depth.append(depth[last] + 1)
        p = last
        while p != -1 and ch not in trans[p]:
            trans[p][ch] = cur
            p = link[p]
        if p != -1:
            q = trans[p][ch]
            if depth[q] == depth[p] + 1:
                link[cur] = q
            else:
                clone = len(trans)
                trans.append(dict(trans[q]))
                link.append(link[q])
                depth.append(depth[p] + 1)
                while p != -1 and trans[p].get(ch) == q:
                    trans[p][ch] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
    return trans


def window_places(k: int, l: int, R: int, C: int) -> dict:
    """Each (k,l) window of the (R,C) prefix, as a grid -> all its 0-based
    places, row-major ascending, by slicing every place."""
    g = mu_prefix(R, C)
    places = {}
    for i in range(R - k + 1):
        for j in range(C - l + 1):
            w = tuple(row[j:j + l] for row in g[i:i + k])
            places.setdefault(w, []).append((i, j))
    return places


def product_graph(base, hung):
    """The rooted product of base and hung, built edge by edge: a copy of
    hung at every node of base but its root, base edges between the copy
    roots."""
    g = Digraph((base.root, hung.root))
    g.nodes.update((u, hung.root) for u in base.nodes)
    for u, u2, lab in edges(base):
        g.add_edge((u, hung.root), (u2, hung.root), lab)
    hung_edges = edges(hung)
    for u in set(base.nodes) - {base.root}:
        for v, v2, lab in hung_edges:
            g.add_edge((u, v), (u, v2), lab)
    return g


def dot_graph(orientation: str, max_len: int) -> Digraph:
    """The graph `dawg-dot --orientation` prints, stored edge by edge."""
    if orientation == "product":
        return product_graph(build_line_dawg("rows", max_len),
                             build_line_dawg("cols", max_len))
    line = build_line_dawg(orientation, max_len)
    g = Digraph(line.root)
    g.nodes.update(line.nodes)
    for u, v, lab in edges(line):
        g.add_edge(u, v, lab)
    return g


def _fmt_node(v) -> str:
    return f"({v[0]},{v[1]})" if isinstance(v, tuple) else str(v)


def _fmt_label(lab) -> str:
    return ",".join(sorted(lab, reverse=True))


def export_dot_text(g: Digraph) -> str:
    """Deterministic DOT text of g as one string, each label formatted per
    edge."""
    lines = ["digraph {", "  rankdir=LR;"]
    for v in sorted(g.nodes):
        shape = "doublecircle" if v == g.root else "circle"
        lines.append(f'  "{_fmt_node(v)}" [shape={shape}];')
    for u, v, lab in sorted(g.edges, key=lambda e: (e[0], e[1], _fmt_label(e[2]))):
        lines.append(f'  "{_fmt_node(u)}" -> "{_fmt_node(v)}" [label="{_fmt_label(lab)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------- subprocesses --

PACKAGE_ENV = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(fib2d.__file__)))

_OPTIMIZED = "import sys\nif __debug__:\n    sys.exit('not optimized')\n"


def run_optimized(script: str, *argv) -> subprocess.CompletedProcess:
    """script run by python -O with argv as its arguments, stdout and
    stderr captured as text; it exits at once, 'not optimized', if assert
    statements still run.  sys is imported for it."""
    return subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED + script,
                           *argv], capture_output=True, text=True,
                          env=PACKAGE_ENV, timeout=60)


_FRESH_PEAK = """\
import sys, tracemalloc
from fib2d import cli

class Count:
    chars = 0

    def write(self, s):
        Count.chars += len(s)
        return len(s)

    def flush(self):
        pass

out, sys.stdout = sys.stdout, Count()
tracemalloc.start()
code = cli.main(sys.argv[1:])
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
out.write(f"{code} {Count.chars} {peak}")
"""


def fresh_peak(*argv) -> tuple[int, int, int]:
    """(exit code, characters written, tracemalloc peak in bytes) of one
    cli.main request run in a fresh interpreter, its stdout only counted
    and its stderr written to this process's stderr.

    A peak traced in the test process also reads what earlier tests left
    behind, and so depends on which tests ran before it; a fresh
    interpreter holds only the imported package.  It starts with -S: the
    site module, and what its .pth files import, are not the package's,
    and they can take longer to start than the package takes to import."""
    proc = subprocess.run([sys.executable, "-S", "-c", _FRESH_PEAK, *argv],
                          env=PACKAGE_ENV, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode:
        raise AssertionError(f"fresh interpreter failed: {proc.stderr}")
    sys.stderr.write(proc.stderr)
    code, chars, peak = map(int, proc.stdout.split())
    return code, chars, peak


# ------------------------------------------------------ replaced checks --

@shared
def factor_set(k: int, alphabet) -> frozenset[str]:
    """The length-k factors, as a set."""
    return frozenset(factors1d(k, alphabet))


def shortest_truncated_index_loop(u: str, alphabet) -> int:
    """word1d.shortest_truncated_index read off the definition: check that u
    is among the length-|u| factors, then try truncated(2), truncated(3),
    ... until one holds u."""
    if not u:
        raise ValueError("u must be non-empty")
    if u not in factor_set(len(u), alphabet):
        raise NotAFactor(f"{u!r} does not occur in the infinite word")
    n = 2
    while u not in truncated(n, alphabet):
        n += 1
    return n


def as_grid_loop(rows):
    """word2d.as_grid with its letters checked one at a time."""
    g = tuple(rows)
    if not g:
        return EMPTY
    width = len(g[0])
    if width == 0:
        raise ShapeMismatch("grids with empty rows do not exist")
    for row in g:
        if len(row) != width:
            raise ShapeMismatch("rows have unequal lengths")
        for ch in row:
            if ch not in "abcd":
                raise ValueError(f"letter {ch!r} outside 'abcd'")
    return g


def argparse_parser() -> argparse.ArgumentParser:
    """The argparse parser of the fib2d command line; func is the command's
    function, as in cli._COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="fib2d",
        description="Factors of the two-dimensional infinite Fibonacci word.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen1d", help="prefix of a 1D infinite Fibonacci word")
    p.add_argument("--alphabet", default="ba",
                   help="two letters, dominant first (default: ba)")
    p.add_argument("--len", type=int, required=True)
    p.set_defaults(func=cli._cmd_gen1d)

    p = sub.add_parser("gen2d", help="prefix of the infinite grid")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.set_defaults(func=cli._cmd_gen2d)

    p = sub.add_parser("enum", help="all subwords of a size")
    p.add_argument("--k", type=int, required=True, help="rows of the subwords")
    p.add_argument("--l", type=int, required=True, help="cols of the subwords")
    p.add_argument("--method", choices=sorted(cli._ENUM_METHODS),
                   default="dawg")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli._cmd_enum)

    p = sub.add_parser("locate", help="occurrence set of a factor")
    p.add_argument("--file", required=True,
                   help="2D word in text format ('-' for stdin)")
    p.add_argument("--row-bound", type=int, required=True)
    p.add_argument("--col-bound", type=int, required=True)
    p.set_defaults(func=cli._cmd_locate)

    p = sub.add_parser("conjugates", help="conjugacy class of a Fibonacci grid")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--special", action="store_true",
                   help="print only the distinguished conjugate")
    p.set_defaults(func=cli._cmd_conjugates)

    p = sub.add_parser("dawg-dot", help="DOT dump of a line DAWG or product")
    p.add_argument("--orientation", choices=["rows", "cols", "product"],
                   required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=cli._cmd_dawg_dot)

    p = sub.add_parser("verify", help="cross-method agreement report")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli._cmd_verify)

    return parser


# --------------------------------------- rotations, paths and bands --

def conjugacy_class_rotations(w):
    """All distinct row/column rotations of w, sorted: each distinct row
    rotated once per column exponent, every grid a row rotation of one
    column of those rotations."""
    if not w:
        raise ValueError("conjugacy class needs a non-empty grid")
    rows, cols = dims(w)
    turns = {r: [r[j:] + r[:j] for j in range(cols)] for r in set(w)}
    lanes = [turns[r] for r in w]
    return tuple(sorted({col[i:] + col[:i]
                         for col in zip(*lanes) for i in range(rows)}))


def spelled_paths(orientation: str, length: int, alphabet: str) -> list[str]:
    """The line DAWG's root paths with `length` edges, each spelled over
    one line alphabet."""
    letter = _LETTER[alphabet].__getitem__
    return list(root_paths(build_line_dawg(orientation, length), length,
                           lambda labels: "".join(map(letter, labels))))


def bands(l: int, R: int, C: int):
    """(j, band) for every width-l column band of the (R,C) prefix.

    Each distinct row of the prefix is cut once per band, so equal rows of
    a band, and of every window sliced from it, are one string.
    """
    g = mu_prefix(R, C)
    distinct = set(g)
    for j in range(C - l + 1):
        rows = {r: r[j:j + l] for r in distinct}
        yield j, tuple([rows[r] for r in g])


def band_occurrences(w, R: int, C: int) -> tuple[tuple[int, int], ...]:
    """All 0-based offsets where w matches inside the (R,C) prefix,
    row-major ascending, found among the windows sliced from the bands."""
    rows, cols = dims(w)
    return tuple(sorted((i, j) for j, band in bands(cols, R, C)
                        for i in range(R - rows + 1)
                        if band[i:i + rows] == w))
