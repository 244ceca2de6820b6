"""Unit tests for the line DAWGs, their products, and path-to-word decoding."""

from __future__ import annotations

import sys
from itertools import product

import pytest

from fib2d import cli, dawg, word1d
from fib2d.errors import InconsistentJoint, InternalError
from fib2d.word2d import COL_ALPHABETS, ROW_ALPHABETS

from reference import (adjacency, dot_graph, edges, enumerate_dawg_per_pair,
                       export_dot_text, product_graph, root_paths,
                       spelled_paths, suffix_automaton, texts)
from tables import PATH_PAIRS_2_2

DB = frozenset("db")
CA = frozenset("ca")
DC = frozenset("dc")
BA = frozenset("ba")


def _spell(path, alphabet):
    # instantiate an abstract class path over one member alphabet
    out = []
    for lab in path:
        (ch,) = set(lab) & set(alphabet)
        out.append(ch)
    return "".join(out)


# -------------------------------------------------------------- line DAWG --

def test_line_dawg_shape_for_max_len_2():
    g = dawg.build_line_dawg("rows", 2)
    assert g.root == 0
    assert set(g.nodes) == set(range(5))
    spine = word1d.fib_prefix("dc", 4)
    expected = [(i - 1, i, DB if spine[i - 1] == "d" else CA) for i in range(1, 5)]
    expected += [(0, 2, CA), (1, 4, DB)]
    assert sorted(edges(g), key=repr) == sorted(expected, key=repr)


def test_line_dawg_orientation_classes():
    g = dawg.build_line_dawg("cols", 1)
    labels = {lab for _, _, lab in edges(g)}
    assert labels == {DC, BA}
    g = dawg.build_line_dawg("rows", 1)
    assert {lab for _, _, lab in edges(g)} == {DB, CA}


# every length to 300, and F12 numbers +-1 beyond it
AUTOMATON_LENGTHS = [*range(1, 301), *(f + d for f in (377, 610, 987, 1597,
                                                        2584, 4181)
                                        for d in (-1, 0, 1))]


def test_line_dawg_is_the_suffix_automaton_of_its_spine():
    # the suffix automaton of the spine and two more letters clones no
    # state, node i of the line DAWG is the state that reads the first i
    # letters, and the edges are the transitions between states <= top
    for length in AUTOMATON_LENGTHS:
        graphs = [dawg.build_line_dawg(o, length) for o in ("rows", "cols")]
        top = graphs[0].top
        spine = word1d.fib_prefix("dc", top + 2)
        trans = suffix_automaton(spine)
        assert len(trans) == len(spine) + 1, length
        state = 0
        for i, ch in enumerate(spine[:top], 1):
            state = trans[state][ch]
            assert state == i, (length, i)
        expected = sorted((s, t, ch) for s in range(top + 1)
                          for ch, t in trans[s].items() if t <= top)
        for g, (dominant, other) in zip(graphs, (COL_ALPHABETS,
                                                 ROW_ALPHABETS)):
            letter = {frozenset(dominant): "d", frozenset(other): "c"}
            assert sorted((u, v, letter[lab])
                          for u, v, lab in edges(g)) == expected, length


def test_line_dawg_rejects_bad_input():
    with pytest.raises(ValueError):
        dawg.build_line_dawg("diagonal", 2)
    with pytest.raises(ValueError):
        dawg.build_line_dawg("rows", 0)


def test_root_path_counts():
    for orientation in ("rows", "cols"):
        g = dawg.build_line_dawg(orientation, 20)
        for length in range(1, 21):
            assert len(root_paths(g, length, tuple)) == length + 1


def test_root_path_counts_at_exact_truncation():
    # the truncation for max_len L must not lose any length-L path
    for length in range(1, 21):
        g = dawg.build_line_dawg("rows", length)
        assert len(root_paths(g, length, tuple)) == length + 1


def test_root_paths_spell_line_factors():
    # each orientation's paths instantiate to the factors of both line words
    for orientation, alphabets in (("rows", ("dc", "ba")), ("cols", ("db", "ca"))):
        g = dawg.build_line_dawg(orientation, 8)
        for length in range(1, 9):
            paths = root_paths(g, length, tuple)
            for alphabet in alphabets:
                spelled = {_spell(p, alphabet) for p in paths}
                assert spelled == set(word1d.factors1d(length, alphabet))


def test_root_paths_match_walk_reference():
    # same paths in the same depth-first order: the library's spine walk,
    # each path an offset in the line word, against the reference walk,
    # each spelled over its line alphabet
    for orientation, alphabet in (("rows", "dc"), ("cols", "db")):
        for length in AUTOMATON_LENGTHS:
            p = word1d.factor_prefix(alphabet, length)
            assert [p[i:i + length] for i in dawg._line_words(length)] \
                == spelled_paths(orientation, length, alphabet), \
                (orientation, length)


def test_root_paths_are_first_occurrences():
    # a root path ends at the node where its word first ends, so its
    # offset is its word's first occurrence, the one extension starts from
    for length in (*range(1, 401), 987, 1596, 2584):
        at = dawg._line_words(length)
        assert len(set(at)) == len(at) == length + 1, length
        p = word1d.factor_prefix("dc", length)
        assert all(p.find(p[i:i + length]) == i for i in at), length
        assert set(at) == set(map(p.find, word1d.factors1d(length, "dc"))), \
            length


def test_root_paths_step_per_branch_point(monkeypatch):
    # the walk asks for out-edges only where it branches: L + 1 paths of
    # length L branch at L nodes, where following single edges one at a
    # time asks at every node on the way
    calls = 0
    out = dawg._LineDawg.out

    def counted(g, u):
        nonlocal calls
        calls += 1
        return out(g, u)

    monkeypatch.setattr(dawg._LineDawg, "out", counted)
    for length in (40, 500, 1100):
        calls = 0
        assert len(dawg._line_words(length)) == length + 1
        assert calls <= length, (length, calls)


def test_deep_paths_need_no_recursion(capsys):
    # a walk with one stack frame per edge overflows the default limit of
    # 1000 frames at this length
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code = cli.main(["enum", "--method", "dawg", "--k", "1", "--l", "1001"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert capsys.readouterr().out.count("\n\n") == 2 * 1002 - 1


# ----------------------------------------------------------------- product --

def _product_path_pairs(prod, base_len, hung_len):
    # (base labels, hung labels) of every root path of the rooted product
    # that takes base_len base edges, then hung_len edges inside one copy
    prod = adjacency(prod)
    out = []
    stack = [(prod.root, ())]
    while stack:
        node, labels = stack.pop()
        depth = len(labels)
        if depth == base_len + hung_len:
            out.append((labels[:base_len], labels[base_len:]))
            continue
        for dst, lab in prod.out(node):
            if (dst[0] != node[0]) == (depth < base_len):
                stack.append((dst, labels + (lab,)))
    return out


def test_rooted_product_counts_and_containment():
    g1 = dawg.build_line_dawg("rows", 2)
    g2 = dawg.build_line_dawg("cols", 2)
    prod = dawg.rooted_product(g1, g2)
    # a copy of g2 hangs at every node of g1 but the root, which no root
    # path of positive base length enters
    assert len(prod.nodes) == len(g1.nodes) + (len(g1.nodes) - 1) * (len(g2.nodes) - 1)
    assert len(prod.edges) == (len(edges(g1))
                               + (len(g1.nodes) - 1) * len(edges(g2)))
    across = {((u, g2.root), (u2, g2.root), lab) for u, u2, lab in edges(g1)}
    down = {((u, v), (u, v2), lab)
            for u in set(g1.nodes) - {g1.root} for v, v2, lab in edges(g2)}
    assert set(prod.edges) == across | down


def test_product_paths_pair_line_paths():
    # enumerate_dawg pairs line DAWG paths instead of walking the product:
    # the product's shaped root paths are exactly those pairs, each once
    for k in range(1, 7):
        for l in range(1, 7):
            rows = dawg.build_line_dawg("rows", l)
            cols = dawg.build_line_dawg("cols", k)
            pairs = _product_path_pairs(dawg.rooted_product(rows, cols), l, k)
            expected = set(product(root_paths(rows, l, tuple),
                                   root_paths(cols, k, tuple)))
            assert len(pairs) == len(set(pairs)) == (k + 1) * (l + 1)
            assert set(pairs) == expected


# ------------------------------------------------------- path to subword --

def test_subword_from_path_concrete_pairs():
    for (h, v), expected in PATH_PAIRS_2_2:
        assert dawg.subword_from_path(h, v) == expected


def test_subword_from_path_abstract_labels():
    assert dawg.subword_from_path((DB, CA), (DC, BA)) == ("dc", "ba")
    assert dawg.subword_from_path((DB, DB), (DC, DC)) == ("dd", "dd")


def test_subword_from_path_rejects_disagreeing_corner():
    with pytest.raises(InconsistentJoint):
        dawg.subword_from_path("dc", "dd")
    with pytest.raises(InconsistentJoint):
        dawg.subword_from_path("ba", "bd")
    with pytest.raises(InconsistentJoint):
        dawg.subword_from_path((BA, DB), (DC,))  # BA has no letter of 'dc'


def test_subword_from_path_rejects_malformed_labels():
    with pytest.raises(ValueError):
        dawg.subword_from_path("", "d")
    with pytest.raises(ValueError):
        dawg.subword_from_path(["dc"], "d")  # two-letter string is not a label
    with pytest.raises(ValueError):
        dawg.subword_from_path((DC,), (DC,))  # ambiguous corner
    with pytest.raises(ValueError):
        dawg.subword_from_path((DB, DC), (DB,))  # DC is ambiguous over 'dc'
    with pytest.raises(ValueError):
        dawg.subword_from_path((frozenset("dx"),), (DB,))  # not a letter
    with pytest.raises(ValueError):
        dawg.subword_from_path([["d"]], "d")  # neither a letter nor a set


@pytest.mark.parametrize("label", [5, {"d"}, ("d",), ["d"]])
def test_subword_from_path_rejects_labels_of_other_types(label):
    # only a str or a frozenset is a label, at the corner or inside a path;
    # an int is not even iterable
    for h, v in [((label,), "d"), ("d", (label,)), ((label, "d"), "d"),
                 ("d", ("d", label))]:
        with pytest.raises(ValueError,
                           match="a label is a letter or a frozenset of letters"):
            dawg.subword_from_path(h, v)


def test_subword_from_path_checks_the_last_column(monkeypatch):
    # a fill that repeats the top row leaves the side only in column 1
    monkeypatch.setattr(dawg, "fill", lambda top, side: (top,) * len(side))
    with pytest.raises(InternalError) as err:
        dawg.subword_from_path("dc", "ca")
    assert str(err.value) == "grid ('dc', 'dc') does not end in column 'ca'"


# ------------------------------------------------------------- enumeration --

def test_enumerate_dawg_matches_per_pair_decoder():
    # the per-corner translation gives exactly what decoding each path
    # pair on its own gives
    shapes = [(k, l) for k in range(1, 13) for l in range(1, 13)]
    shapes += [(1, 1100), (1100, 1), (2, 1100), (1100, 2), (30, 70), (70, 30)]
    for k, l in shapes:
        assert (dawg.enumerate_dawg(k, l)
                == texts(enumerate_dawg_per_pair(k, l))), (k, l)


def test_enumerate_dawg_spells_paths_not_pairs(monkeypatch):
    # the walk gives each path as an offset; nothing decodes per pair
    def forbidden(*args):
        raise AssertionError("per-pair decoding")

    monkeypatch.setattr(dawg, "subword_from_path", forbidden)
    monkeypatch.setattr(dawg, "_spell", forbidden)
    assert len(dawg.enumerate_dawg(40, 40)) == 41 * 41
    assert len(dawg.enumerate_dawg(1, 300)) == 2 * 301


def test_enumerate_dawg_rejects_bad_input():
    with pytest.raises(ValueError):
        dawg.enumerate_dawg(0, 1)
    with pytest.raises(ValueError):
        dawg.enumerate_dawg(1, 0)


# ----------------------------------------------------------------- export --

def test_export_dot_is_deterministic():
    one = "".join(dawg.export_dot(dawg.build_line_dawg("rows", 2)))
    two = "".join(dawg.export_dot(dawg.build_line_dawg("rows", 2)))
    assert one == two
    assert one.startswith("digraph {")
    assert '"0" [shape=doublecircle];' in one
    assert '"0" -> "1" [label="d,b"];' in one
    assert '"0" -> "2" [label="c,a"];' in one


def _dot_lines(orientation, max_len):
    # the pieces of DOT text `dawg-dot --orientation` prints
    if orientation == "product":
        return list(dawg.export_product_dot(
            dawg.build_line_dawg("rows", max_len),
            dawg.build_line_dawg("cols", max_len)))
    return list(dawg.export_dot(dawg.build_line_dawg(orientation, max_len)))


# the line DAWGs, listed unsorted, up to F12 numbers +-1 to 4 182 as well;
# the product past 12 at F12 numbers +-1 and at 40
DOT_LENGTHS = {"product": [*range(1, 13), 20, 21, 22, 33, 34, 35, 40]}
DOT_LENGTHS["rows"] = DOT_LENGTHS["cols"] = [
    *range(1, 13), 40, *(f + d for f in (13, 21, 34, 55, 89, 144, 233, 377,
                                         610, 987, 1597, 2584, 4181)
                         for d in (-1, 0, 1))]


@pytest.mark.parametrize("orientation", ["rows", "cols", "product"])
def test_export_dot_lines_join_to_whole_text_reference(orientation):
    # a line DAWG is written one line per piece, the product in pieces of
    # whole lines
    for max_len in DOT_LENGTHS[orientation]:
        lines = _dot_lines(orientation, max_len)
        assert all(line.endswith("\n") for line in lines)
        if orientation != "product":
            assert all(line.count("\n") == 1 for line in lines)
        assert "".join(lines) == export_dot_text(
            dot_graph(orientation, max_len)), (orientation, max_len)


def test_product_dot_writes_a_copy_a_block_of_lines_at_a_time():
    # every hung copy is written from one template, dawg._BLOCK lines to a
    # piece: 1 420 pieces at --max-len 40, where a piece per line took
    # 18 624
    assert len(_dot_lines("product", 40)) < 2000


def test_product_listing_is_the_product_in_dot_order():
    # rooted_product and the DOT text dawg-dot prints are each made from
    # the two line DAWGs, and both are checked against the product built
    # edge by edge
    for max_rows, max_cols in [*((n, n) for n in range(1, 13)), (3, 8),
                               (8, 3), (40, 40)]:
        rows = dawg.build_line_dawg("rows", max_rows)
        cols = dawg.build_line_dawg("cols", max_cols)
        ref = product_graph(rows, cols)
        prod = dawg.rooted_product(rows, cols)
        assert prod.root == ref.root
        assert prod.nodes == ref.nodes
        assert sorted(prod.edges, key=repr) == sorted(ref.edges, key=repr)
        assert "".join(dawg.export_product_dot(rows, cols)) == \
            export_dot_text(ref), (max_rows, max_cols)
