"""Brute-force reference answers for the benchmark's correctness checks.

Nothing here imports fib2d.  The 2D infinite Fibonacci word is built by
iterating its letter substitution (d -> dc over ba, c -> d over b, b -> dc,
a -> d) on an explicit prefix.  Its line words are the 1D Fibonacci word,
the fixed point of 0 -> 01, 1 -> 0, written over a line alphabet: row i of
the grid is over {d,c} where the row word has 0 and over {b,a} where it has
1, and the same word read across the columns picks {d,b} or {c,a}.
Factor sets come from harvesting every window of an explicit prefix,
occurrence sets from substring search in a line word.
"""

from __future__ import annotations

import json
from collections import Counter

# 2D substitution, one translation per image row
_DC_TOP = str.maketrans({"d": "dc", "c": "d"})
_DC_BOTTOM = str.maketrans({"d": "ba", "c": "b"})
_BA = str.maketrans({"b": "dc", "a": "d"})
_BITS = str.maketrans({"0": "01", "1": "0"})

# letter at (i, j) by the row-word bit at i and the column-word bit at j
LETTER = {("0", "0"): "d", ("0", "1"): "c", ("1", "0"): "b", ("1", "1"): "a"}
ROW_CLASS = {"d": "0", "c": "0", "b": "1", "a": "1"}
COL_CLASS = {"d": "0", "b": "0", "c": "1", "a": "1"}


def fib_bits(n: int) -> str:
    """Length-n prefix of the 1D Fibonacci word over '0' (dominant), '1'."""
    s = "0"
    while len(s) < n:
        s = s.translate(_BITS)
    return s[:n]


def fib_line(alphabet: str, n: int) -> str:
    """Length-n prefix of the 1D Fibonacci word, dominant letter first."""
    return fib_bits(n).translate(str.maketrans("01", alphabet))


def grid_prefix(rows: int, cols: int) -> tuple[str, ...]:
    """The (rows, cols) top-left corner of the 2D word, by substitution.

    Every letter image is non-empty, so the corner of the next iterate
    depends only on the corner of this one and each step can crop.
    """
    g = ["d"]
    while len(g) < rows or len(g[0]) < cols:
        out = []
        for row in g:
            if row[0] in "dc":
                out.append(row.translate(_DC_TOP))
                out.append(row.translate(_DC_BOTTOM))
            else:
                out.append(row.translate(_BA))
            if len(out) >= rows:
                break
        g = [r[:cols] for r in out[:rows]]
    return tuple(g)


def transpose(g) -> tuple[str, ...]:
    return tuple("".join(col) for col in zip(*g))


def _windows1d(word: str, n: int) -> set[str]:
    return {word[i:i + n] for i in range(len(word) - n + 1)}


def stable_len(n: int) -> int:
    """A prefix length A whose length-n windows are those of the 2A prefix."""
    a = 2 * n + 8
    while _windows1d(fib_bits(a), n) != _windows1d(fib_bits(2 * a), n):
        a *= 2
    return a


def factor_set(k: int, l: int) -> list[tuple[str, ...]]:
    """Every distinct (k, l) window of an explicit prefix, sorted.

    The prefix is stable_len(k) x stable_len(l).  Tall shapes are
    harvested as wide windows of the transposed prefix, so each window is
    a few long slices instead of many one-letter ones.
    """
    g = grid_prefix(stable_len(k), stable_len(l))
    if k <= l:
        return sorted(_windows2d(g, k, l))
    return sorted(transpose(w) for w in _windows2d(transpose(g), l, k))


def _windows2d(g, k: int, l: int) -> set[tuple[str, ...]]:
    rows, cols = len(g), len(g[0])
    return {tuple(r[y:y + l] for r in g[x:x + k])
            for x in range(rows - k + 1) for y in range(cols - l + 1)}


def line_classes(w) -> tuple[str, str] | None:
    """(row-word bits, column-word bits) of a grid, or None when some row
    or column mixes line alphabets, so that the grid cannot occur."""
    rows = []
    for r in w:
        classes = {ROW_CLASS[ch] for ch in r}
        if len(classes) != 1:
            return None
        rows.append(classes.pop())
    cols = []
    for c in transpose(w):
        classes = {COL_CLASS[ch] for ch in c}
        if len(classes) != 1:
            return None
        cols.append(classes.pop())
    return "".join(rows), "".join(cols)


def grid_from_classes(rho: str, gamma: str) -> tuple[str, ...]:
    return tuple("".join(LETTER[r, g] for g in gamma) for r in rho)


def positions(word: str, pat: str, bound: int) -> list[int]:
    """Offsets i < bound where pat occurs in word, ascending."""
    out = []
    i = word.find(pat)
    while 0 <= i < bound:
        out.append(i)
        i = word.find(pat, i + 1)
    return out


def middle_class(bits: str, n: int, bound: int, lo: int, hi: int) -> list[int]:
    """Offsets in [lo, hi) whose length-n factor occurs a median number of
    times (within one) below bound.

    Length-n factors of the Fibonacci word fall into a few frequency
    classes, up to 2.6 times apart.  Drawing cuts only from the median
    class keeps the output size of a seeded locate request independent of
    the seed.
    """
    counts = Counter(bits[i:i + n] for i in range(bound))
    median = sorted(counts.values())[len(counts) // 2]
    return [i for i in range(lo, hi)
            if abs(counts[bits[i:i + n]] - median) <= 1]


# ---------------------------------------------------------------- checks --
# Each check takes the request's stdout bytes and returns None when it is
# right, or a one-line reason.

def check_blocks(expected):
    """`enum` text output: blank-line separated blocks, sorted."""
    def check(out: bytes):
        got = [tuple(b.split()) for b in out.decode("ascii").split("\n\n")]
        if got != expected:
            return _diff("blocks", got, expected)
        return None
    return check


def check_json_blocks(expected):
    """`enum --json` output: a list of {rows, cols, data}, sorted."""
    def check(out: bytes):
        got = json.loads(out)
        shapes = {(d["rows"], d["cols"]) for d in got}
        want = {(len(w), len(w[0])) for w in expected}
        if shapes != want:
            return f"shapes {sorted(shapes)[:3]} want {sorted(want)}"
        data = [tuple(d["data"]) for d in got]
        if data != expected:
            return _diff("blocks", data, expected)
        return None
    return check


def check_verify_report(k: int, l: int, n: int):
    """`verify` text report: every method found the n reference factors."""
    def check(out: bytes):
        lines = out.decode("ascii").splitlines()
        if not lines or lines[0] != f"size ({k},{l}): expected {n} subwords":
            return f"header {lines[:1]!r}, reference count {n}"
        if lines[-3:] != ["  methods agree: True", "  oracle stable: True",
                          "PASS"]:
            return f"verdict {lines[-3:]!r}"
        sizes = [line.split() for line in lines[1:-3]]
        if len(sizes) < 4 or any(len(s) != 2 or s[1] != str(n)
                                 for s in sizes):
            return f"method sizes {sizes!r}, reference count {n}"
        return None
    return check


def check_text(expected: str):
    """Exact text output (gen1d, gen2d)."""
    want = expected.encode("ascii")

    def check(out: bytes):
        if out != want:
            return _diff("bytes", out, want)
        return None
    return check


def check_empty(out: bytes):
    return None if not out else f"{len(out)} bytes on stdout of an error"


def check_line_dawg_dot(max_len: int):
    """`dawg-dot --orientation product`: the row DAWG with a column DAWG
    hung at every node but the root.

    The row DAWG's root paths of length n <= max_len must spell exactly
    the length-n factors of the row word (letters as column classes
    'd,b' / 'c,a'), and each hung copy's root paths those of the column
    word (row classes 'd,c' / 'b,a').
    """
    word = fib_bits(stable_len(max_len))
    want = {n: _windows1d(word, n) for n in range(1, max_len + 1)}

    def check(out: bytes):
        nodes, edges, root = _parse_dot(out.decode("ascii"))
        if root != "(0,0)":
            return f"root {root!r}"
        base, copies = {}, {}
        for u, v, lab in edges:
            (bu, hu), (bv, hv) = _pair(u), _pair(v)
            if hu == hv == "0" and bu != bv:
                base.setdefault(bu, []).append((bv, lab))
            elif bu == bv:
                copies.setdefault(bu, set()).add((hu, hv, lab))
            else:
                return f"edge {u}->{v} neither across nor down"
        err = _check_language(base, "0", {"d,b": "0", "c,a": "1"}, want)
        if err:
            return "row DAWG: " + err
        if "0" in copies:
            return "a column DAWG hangs at the root"
        hung = {frozenset(c) for c in copies.values()}
        if len(hung) != 1 or set(copies) != set(base) - {"0"} | _sinks(base):
            return f"{len(hung)} distinct hung copies at {len(copies)} nodes"
        down = {}
        for hu, hv, lab in hung.pop():
            down.setdefault(hu, []).append((hv, lab))
        err = _check_language(down, "0", {"d,c": "0", "b,a": "1"}, want)
        if err:
            return "column DAWG: " + err
        if not nodes >= {u for u, _, _ in edges} | {v for _, v, _ in edges}:
            return "edge to an undeclared node"
        return None
    return check


def _sinks(adj) -> set[str]:
    targets = {v for out in adj.values() for v, _ in out}
    return targets - set(adj)


def _pair(node: str) -> tuple[str, str]:
    a, b = node.strip("()").split(",")
    return a, b


def _parse_dot(text: str):
    lines = text.splitlines()
    if lines[:2] != ["digraph {", "  rankdir=LR;"] or lines[-1] != "}":
        raise ValueError("not a DOT digraph")
    nodes, edges, root = set(), [], None
    for line in lines[2:-1]:
        name, _, rest = line.strip().partition('" ')
        name = name.lstrip('"')
        if rest.startswith("[shape="):
            nodes.add(name)
            if rest == "[shape=doublecircle];":
                root = name
        else:
            dst, _, label = rest.removeprefix('-> "').partition('" [label="')
            edges.append((name, dst, label.removesuffix('"];')))
    return nodes, edges, root


def _check_language(adj, root, classes, want) -> str | None:
    # the graph is deterministic, so each factor is one path; walk level by
    # level and compare the spelled words with the reference factors
    level = {"": root}
    for n in range(1, len(want) + 1):
        nxt = {}
        for word, node in level.items():
            for dst, lab in adj.get(node, ()):
                if lab not in classes:
                    return f"label {lab!r}"
                w = word + classes[lab]
                if w in nxt:
                    return f"two paths spell {w!r}"
                nxt[w] = dst
        if set(nxt) != want[n]:
            return f"{len(nxt)} paths of length {n}, {len(want[n])} factors"
        level = nxt
    return None


def check_locate(w, row_bound: int, col_bound: int, near):
    """`locate` JSON: both axes by substring search in the line words,
    occurrences inside the explicit prefix `near` by explicit windows.

    `near` must be a grid_prefix at least as large as w.
    """
    rho, gamma = line_classes(w)
    k, l = len(w), len(w[0])
    xs = positions(fib_bits(row_bound + k), rho, row_bound)
    ys = positions(fib_bits(col_bound + l), gamma, col_bound)
    first = [fib_bits(stable_len(k)).find(rho),
             fib_bits(stable_len(l)).find(gamma)]
    box_x, box_y = len(near) - k + 1, len(near[0]) - l + 1
    box = set()
    for x in range(min(row_bound, box_x)):
        for y in positions(near[x], w[0], min(col_bound, box_y)):
            if all(near[x + r][y:y + l] == w[r] for r in range(1, k)):
                box.add((x, y))

    def check(out: bytes):
        got = json.loads(out)
        if (got.get("row_bound"), got.get("col_bound")) != (row_bound,
                                                             col_bound):
            return "bounds not echoed"
        if got.get("first") != first:
            return f"first {got.get('first')} want {first}"
        occ = got.get("occurrences")
        if not isinstance(occ, list) or len(occ) != len(xs) * len(ys):
            return f"{len(occ or ())} occurrences want {len(xs) * len(ys)}"
        it = iter(occ)
        for x in xs:
            for y in ys:
                if next(it) != [x, y]:
                    return f"occurrence list differs near ({x}, {y})"
        inside = {(x, y) for x, y in occ if x < box_x and y < box_y}
        if inside != box:
            return (f"{len(inside)} occurrences inside the explicit "
                    f"{box_x}x{box_y} box, {len(box)} windows match")
        return None
    return check


def _diff(what, got, want) -> str:
    if len(got) != len(want):
        return f"{len(got)} {what}, want {len(want)}"
    i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return f"{what} differ first at index {i}"

