"""Unit tests for the line DAWGs, their products, and path-to-word decoding."""

from __future__ import annotations

import sys
from itertools import product

import pytest

from fib2d import cli, dawg, word1d
from fib2d.errors import InconsistentJoint

from tables import PATH_PAIRS_2_2, WORDS_1_1, WORDS_2_2, WORDS_3_3

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
    assert g.nodes == set(range(5))
    spine = word1d.fib_prefix("dc", 4)
    expected = [(i - 1, i, DB if spine[i - 1] == "d" else CA) for i in range(1, 5)]
    expected += [(0, 2, CA), (1, 4, DB)]
    assert sorted(g.edges, key=repr) == sorted(expected, key=repr)


def test_line_dawg_orientation_classes():
    g = dawg.build_line_dawg("cols", 1)
    labels = {lab for _, _, lab in g.edges}
    assert labels == {DC, BA}
    g = dawg.build_line_dawg("rows", 1)
    assert {lab for _, _, lab in g.edges} == {DB, CA}


def test_line_dawg_rejects_bad_input():
    with pytest.raises(ValueError):
        dawg.build_line_dawg("diagonal", 2)
    with pytest.raises(ValueError):
        dawg.build_line_dawg("rows", 0)


def test_root_path_counts():
    for orientation in ("rows", "cols"):
        g = dawg.build_line_dawg(orientation, 20)
        for length in range(1, 21):
            assert len(dawg.root_paths(g, length)) == length + 1


def test_root_path_counts_at_exact_truncation():
    # the truncation for max_len L must not lose any length-L path
    for length in range(1, 21):
        g = dawg.build_line_dawg("rows", length)
        assert len(dawg.root_paths(g, length)) == length + 1


def test_root_paths_spell_line_factors():
    # each orientation's paths instantiate to the factors of both line words
    for orientation, alphabets in (("rows", ("dc", "ba")), ("cols", ("db", "ca"))):
        g = dawg.build_line_dawg(orientation, 8)
        for length in range(1, 9):
            paths = dawg.root_paths(g, length)
            for alphabet in alphabets:
                spelled = {_spell(p, alphabet) for p in paths}
                assert spelled == set(word1d.factors1d(length, alphabet))


def test_deep_paths_need_no_recursion(capsys):
    # a walk with one stack frame per edge overflows the default limit of
    # 1000 frames at these lengths
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        g = dawg.build_line_dawg("cols", 1100)
        assert len(dawg.root_paths(g, 1100)) == 1101
        code = cli.main(["enum", "--method", "dawg", "--k", "1", "--l", "1001"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert capsys.readouterr().out.count("\n\n") == 2 * 1002 - 1


# ----------------------------------------------------------------- product --

def _product_path_pairs(prod, base_len, hung_len):
    # (base labels, hung labels) of every root path of the rooted product
    # that takes base_len base edges, then hung_len edges inside one copy
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
    assert len(prod.edges) == len(g1.edges) + (len(g1.nodes) - 1) * len(g2.edges)
    across = {((u, g2.root), (u2, g2.root), lab) for u, u2, lab in g1.edges}
    down = {((u, v), (u, v2), lab)
            for u in g1.nodes - {g1.root} for v, v2, lab in g2.edges}
    assert set(prod.edges) == across | down


def test_product_paths_pair_line_paths():
    # enumerate_dawg pairs line DAWG paths instead of walking the product:
    # the product's shaped root paths are exactly those pairs, each once
    for k in range(1, 7):
        for l in range(1, 7):
            rows = dawg.build_line_dawg("rows", l)
            cols = dawg.build_line_dawg("cols", k)
            pairs = _product_path_pairs(dawg.rooted_product(rows, cols), l, k)
            expected = set(product(dawg.root_paths(rows, l),
                                   dawg.root_paths(cols, k)))
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


# ------------------------------------------------------------- enumeration --

def test_enumerate_dawg_small_catalogs():
    assert dawg.enumerate_dawg(1, 1) == WORDS_1_1
    assert dawg.enumerate_dawg(2, 2) == WORDS_2_2
    assert dawg.enumerate_dawg(3, 3) == WORDS_3_3


def test_enumerate_dawg_counts():
    for k in range(1, 6):
        for l in range(1, 6):
            assert len(dawg.enumerate_dawg(k, l)) == (k + 1) * (l + 1)


def test_enumerate_dawg_rejects_bad_input():
    with pytest.raises(ValueError):
        dawg.enumerate_dawg(0, 1)
    with pytest.raises(ValueError):
        dawg.enumerate_dawg(1, 0)


# ----------------------------------------------------------------- export --

def test_export_dot_is_deterministic():
    one = dawg.export_dot(dawg.build_line_dawg("rows", 2))
    two = dawg.export_dot(dawg.build_line_dawg("rows", 2))
    assert one == two
    assert one.startswith("digraph {")
    assert '"0" [shape=doublecircle];' in one
    assert '"0" -> "1" [label="d,b"];' in one
    assert '"0" -> "2" [label="c,a"];' in one

