"""Unit tests for the 1D layer: numbers, words, factors, occurrences."""

from __future__ import annotations

import ast
import bisect
import io
import os
import subprocess
import sys
import tracemalloc
from itertools import permutations, repeat

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fib2d
from fib2d import cli, oracle, word1d, word2d
from fib2d.errors import EmptyWord, InternalError, NotAFactor, TooShort

from reference import (factor_set, factors1d_listkey, right_table, shared,
                       shortest_truncated_index_loop, special_factor)
from tables import (FACTORS_4_AB, OCC_ABAB_BELOW_33, Q_4_AB, Z1_BELOW_6,
                    Z2_BELOW_12, Z4_BELOW_30)
from test_word2d import _owners

ALPHABETS = ("ab", "ba", "dc", "db", "ca")


# ---------------------------------------------------------------- numbers --

def test_fib_values():
    assert [word1d.fib(n, "F11") for n in range(9)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert [word1d.fib(n, "F12") for n in range(8)] == [1, 2, 3, 5, 8, 13, 21, 34]


def test_fib_rejects_bad_input():
    with pytest.raises(ValueError):
        word1d.fib(-1)
    with pytest.raises(ValueError):
        word1d.fib(3, "F13")


@given(st.integers(2, 60), st.sampled_from(["F11", "F12"]))
def test_fib_recurrence(n, numbering):
    assert word1d.fib(n, numbering) == (word1d.fib(n - 1, numbering)
                                        + word1d.fib(n - 2, numbering))


def test_zeck_repr_values():
    assert word1d.zeck_repr(0) == ()
    assert word1d.zeck_repr(1) == (0,)
    assert word1d.zeck_repr(4) == (0, 2)
    assert word1d.zeck_repr(11) == (2, 4)
    # F11 indexing starts at 1: 11 = 3 + 8 = F(3) + F(5)
    assert word1d.zeck_repr(11, "F11") == (3, 5)
    assert word1d.zeck_repr(1, "F11") == (1,)


def test_zeck_repr_rejects_negative():
    with pytest.raises(ValueError):
        word1d.zeck_repr(-1)


@given(st.integers(0, 10**5), st.sampled_from(["F11", "F12"]))
def test_zeck_repr_is_valid(x, numbering):
    idx = word1d.zeck_repr(x, numbering)
    assert sum(word1d.fib(i, numbering) for i in idx) == x
    assert all(j - i >= 2 for i, j in zip(idx, idx[1:]))
    lowest = 1 if numbering == "F11" else 0
    assert all(i >= lowest for i in idx)


# every x below 10^4 and every Fibonacci number of either numbering, +-1
FIB_INDEX_PROBES = sorted(set(range(10**4)) | {
    word1d.fib(i, numbering) + d for i in range(80)
    for numbering in ("F11", "F12") for d in (-1, 0, 1)})


@pytest.mark.parametrize("numbering", ["F11", "F12"])
def test_fib_index_matches_the_search_loops(numbering):
    # each loop a caller used to write is compared with the fib_index
    # expression that replaced it
    def fib(n):
        return word1d.fib(n, numbering)

    a, b = (1, 1) if numbering == "F11" else (1, 2)
    fibs = []  # iterated here, independently of word1d.fib
    while len(fibs) < 90:
        fibs.append(a)
        a, b = b, a + b
    for x in FIB_INDEX_PROBES:
        n = word1d.fib_index(x, numbering)
        assert n == bisect.bisect_right(fibs, x), x
        # the F12 numbers below bound that z_stream once listed, with
        # x = bound - 1
        assert [fib(i) for i in range(n)] == [f for f in fibs if f <= x]
        # fib_prefix, with x = length - 1; the loop starts at 1, and at
        # length 1 the w_0 that fib_index picks starts like w_1
        m = 1
        while fib(m) < x + 1:
            m += 1
        assert m == max(1, n)
        if x < 1:
            continue
        # zeck_repr's digit search and build_line_dawg's first search
        m = 1 if numbering == "F11" else 0
        while fib(m + 1) <= x:
            m += 1
        assert m == n - 1
        # _cover_index and both axes of sufficient_bounds
        m = 2
        while fib(m) <= x:
            m += 1
        assert m == max(2, n)
        # build_line_dawg's shortcut edges, with x = top
        j = 1
        while fib(j + 1) - 1 <= x:
            j += 1
        assert range(1, j) == range(1, word1d.fib_index(x + 1, numbering) - 1)


def test_z_stream_values():
    assert word1d.z_stream(1, 6) == Z1_BELOW_6
    assert word1d.z_stream(2, 12) == Z2_BELOW_12
    assert word1d.z_stream(4, 30) == Z4_BELOW_30
    assert word1d.z_stream(3, 0) == ()


# the reference for z_stream is its definition, a filter over every x below
# the bound; the Zeckendorf forms are listed once for all examples
Z_REF_BOUND = 5000
ZECK_BELOW = tuple(word1d.zeck_repr(x) for x in range(Z_REF_BOUND))
F12_EDGES = sorted({b for i in range(18) for b in (word1d.fib(i, "F12") - 1,
                                                   word1d.fib(i, "F12"),
                                                   word1d.fib(i, "F12") + 1)
                    if b <= Z_REF_BOUND})


@given(st.integers(1, 20),
       st.one_of(st.integers(0, Z_REF_BOUND), st.sampled_from(F12_EDGES)))
def test_z_stream_matches_filter(n, bound):
    assert word1d.z_stream(n, bound) == tuple(
        x for x in range(bound) if all(i >= n for i in ZECK_BELOW[x]))


# every sum of non-adjacent F12 numbers with indices in [lo, hi): the
# filter would visit 4e12 integers at (40, 60) and 1.1e18 at (68, 86), the
# stream visits its output
@pytest.mark.parametrize("lo, hi, count", [(40, 60, 17711), (68, 86, 6765)])
def test_z_stream_is_output_sensitive(lo, hi, count):
    out = word1d.z_stream(lo, word1d.fib(hi, "F12"))
    assert all(a < b for a, b in zip(out, out[1:]))
    for x in out:
        assert all(lo <= i < hi for i in word1d.zeck_repr(x))
    # non-adjacent subsets of hi - lo indices, counted by the last index
    # being free or taken
    free, taken = 1, 0
    for _ in range(hi - lo):
        free, taken = free + taken, free
    assert len(out) == free + taken == count


def test_z_stream_rejects_bad_input():
    with pytest.raises(ValueError):
        word1d.z_stream(0, 10)
    with pytest.raises(ValueError):
        word1d.z_stream(2, -1)


# ------------------------------------------------------------------ words --

def test_fib_word_seedings():
    assert word1d.fib_word(0, "x0", "x1") == "x0"
    assert word1d.fib_word(1, "x0", "x1") == "x1"
    # classic: seed (second, first), |w_n| = fib(n, "F11")
    assert word1d.fib_word(4, "a", "b") == "babba"
    assert word1d.fib_word(4, "b", "a") == "abaab"
    # prefix-growing: seed (first, first+second), |w_n| = fib(n, "F12")
    assert word1d.fib_word(5, "a", "ab") == "abaababaabaab"
    assert len(word1d.fib_word(5, "a", "ab")) == word1d.fib(5, "F12")


def test_fib_word_rejects_bad_input():
    with pytest.raises(ValueError):
        word1d.fib_word(-1, "a", "b")
    with pytest.raises(ValueError):
        word1d.fib_word(3, "", "b")


def test_fib_prefix_values():
    assert word1d.fib_prefix("ba", 8) == "babbabab"
    assert word1d.fib_prefix("dc", 5) == "dcddc"
    assert word1d.fib_prefix(("d", "c"), 5) == "dcddc"
    assert word1d.fib_prefix("ab", 0) == ""


@given(st.sampled_from(ALPHABETS), st.integers(0, 300), st.integers(0, 300))
def test_fib_prefix_chain(alphabet, m, n):
    # shorter prefixes are prefixes of longer ones
    if m > n:
        m, n = n, m
    assert word1d.fib_prefix(alphabet, n)[:m] == word1d.fib_prefix(alphabet, m)


@settings(max_examples=100)
@given(st.sampled_from(ALPHABETS), st.integers(0, 3 * word1d._PIECE))
def test_prefix_pieces_join_to_the_prefix(alphabet, length):
    # the images of the prefix's own letters, each at most _PIECE long
    pieces = list(word1d.prefix_pieces(alphabet, length))
    assert "".join(pieces) == word1d.fib_prefix(alphabet, length)
    assert all(0 < len(piece) <= word1d._PIECE for piece in pieces)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        word1d.fib_prefix("bb", 3)
    with pytest.raises(ValueError):
        word1d.fib_prefix(("x", "y"), 3)
    # entries must be single letters, and exactly two of them
    for bad in (("ab", "c"), ("", "a"), "a", "", "bac", ("a", "b", "c")):
        with pytest.raises(ValueError):
            word1d.fib_prefix(bad, 3)
        with pytest.raises(ValueError):
            word1d.factors1d(2, bad)
    with pytest.raises(ValueError):
        word1d.fib_prefix("ba", -1)


def test_truncated_values():
    assert word1d.truncated(2, "ab") == "a"
    assert word1d.truncated(5, "ab") == "abaababaaba"
    assert len(word1d.truncated(5, "ab")) == word1d.fib(5, "F12") - 2


def test_truncated_rejects_small_index():
    with pytest.raises(TooShort):
        word1d.truncated(1, "ab")


# ---------------------------------------------------------------- factors --

def test_factors1d_counts_and_order():
    for alphabet in ("ba", "ab"):
        for k in range(1, 21):
            assert len(word1d.factors1d(k, alphabet)) == k + 1
    assert word1d.factors1d(1, "ba") == ("b", "a")
    # canonical order sorts the dominant letter first
    assert word1d.factors1d(2, "ba") == ("bb", "ba", "ab")
    assert word1d.factors1d(4, "ab") == FACTORS_4_AB


def test_factors1d_matches_window_scan():
    # 20 000 letters hold every factor of these lengths (k = 1598 needs
    # fewer than 4 200); relative to k, the factors of length 1597 take
    # the longest prefix of all k <= 2000
    for alphabet in ("ab", "db"):
        w = word1d.fib_prefix(alphabet, 20_000)
        for k in [*range(1, 61), 610, 987, 1596, 1597, 1598]:
            windows = {w[i:i + k] for i in range(len(w) - k + 1)}
            assert set(word1d.factors1d(k, alphabet)) == windows, k


def test_factors1d_order_matches_per_letter_key():
    # the plain sort, reversed when first > second, orders factors as the
    # per-letter rank list did, in each line alphabet and with the letters
    # in their own order
    for alphabet in ("dc", "ba", "db", "ca", "ab", "cd"):
        for k in range(1, 101):
            assert word1d.factors1d(k, alphabet) == factors1d_listkey(
                k, alphabet), (alphabet, k)


def test_factors1d_rejects_bad_k():
    with pytest.raises(ValueError):
        word1d.factors1d(0, "ab")


def test_factors1d_checks_the_sturmian_count(monkeypatch):
    # a search prefix of k + 1 letters holds only two factors of length k
    monkeypatch.setattr(word1d, "factor_prefix",
                        lambda alphabet, k: word1d.fib_prefix(alphabet, k + 1))
    with pytest.raises(InternalError) as err:
        word1d.factors1d(3, "ab")
    assert str(err.value) == ("2 factors of length 3 in the first 4 letters, "
                              "not the Sturmian count 4")


def _sturmian_bound(node) -> bool:
    """Whether node is the expression 4 * <expr> + 8."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Mult)
            and getattr(node.left.left, "value", None) == 4
            and getattr(node.right, "value", None) == 8)


def test_factor_bound_has_one_home():
    # every read of the length-k factors searches the same prefix
    assert _owners(_sturmian_bound) == ["word1d.factor_prefix"]
    assert word1d.factor_prefix("db", 3) == word1d.fib_prefix("db", 20)


def test_factors1d_keeps_nothing():
    # what one call leaves held, not a peak, so it is traced in this
    # process: what earlier tests left behind is held before the call and
    # after it alike.  Measured, Python 3.11: a table cached per length
    # kept ~1.3 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        factors = word1d.factors1d(1100, "db")
        assert len(factors) == 1101
        del factors
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 100_000


# the twelve ordered pairs of distinct letters
PAIRS = tuple(map("".join, permutations("abcd", 2)))


@shared
def _extensions_by_length(alphabet) -> tuple[tuple[tuple[str, ...], ...], ...]:
    """right_extensions of every factor of length 1 to 200, one tuple per
    length in factors1d order; equal results are one tuple."""
    one, out = {}, []
    for k in range(1, 201):
        exts = map(word1d.right_extensions, word1d.factors1d(k, alphabet),
                   repeat(alphabet))
        out.append(tuple([one.setdefault(xs, xs) for xs in exts]))
    return tuple(out)


def test_shared_values_are_made_unpatched(monkeypatch):
    # a test that patches the package reads what was made before the patch
    # and makes nothing itself
    made = shared(lambda k: word1d.factors1d(k, "ab"))
    factors = made(3)
    monkeypatch.setitem(oracle.METHODS, "dawg", None)
    with pytest.raises(AssertionError, match="patched package"):
        made(4)
    monkeypatch.undo()
    monkeypatch.setattr(word1d, "fib_prefix", lambda alphabet, length: "")
    assert made(3) is factors
    with pytest.raises(AssertionError, match="patched package"):
        made(4)


def test_right_extensions():
    assert word1d.right_extensions("", "ba") == ("b", "a")
    # the special factor extends both ways, every other factor one way
    for k in range(1, 10):
        special = special_factor(k, "ab")
        for u in word1d.factors1d(k, "ab"):
            exts = word1d.right_extensions(u, "ab")
            assert len(exts) == (2 if u == special else 1)
    with pytest.raises(NotAFactor):
        word1d.right_extensions("bb", "ab")


def _set_rule_extensions(u, alphabet):
    # the definition, kept as the reference: letters x with u + x a factor
    longer = set(word1d.factors1d(len(u) + 1, alphabet))
    return tuple(x for x in alphabet if u + x in longer)


def test_right_extension_table_matches_set_rule():
    for alphabet in ("dc", "ba", "db", "ca"):
        for k, exts in enumerate(_extensions_by_length(alphabet)[:60], 1):
            factors = word1d.factors1d(k, alphabet)
            rule = {u: _set_rule_extensions(u, alphabet) for u in factors}
            assert exts == tuple(map(rule.get, factors)), (alphabet, k)
            special = [u for u in factors if len(rule[u]) == 2]
            assert [special_factor(k, alphabet)] == special


def test_right_table_has_one_special_factor():
    # a Sturmian word has exactly one right-special factor of each length
    for alphabet in PAIRS:
        for k, exts in enumerate(_extensions_by_length(alphabet), 1):
            assert sum(len(xs) == 2 for xs in exts) == 1, (alphabet, k)


def test_block_step_matches_right_table():
    # the letter after the first occurrence, and both letters for the
    # reversed prefix, against the table read off the longer factors
    for alphabet in PAIRS:
        for k, exts in enumerate(_extensions_by_length(alphabet), 1):
            factors = word1d.factors1d(k, alphabet)
            table = right_table(k, alphabet)
            assert sorted(table) == sorted(factors), (alphabet, k)
            assert exts == tuple(map(table.get, factors)), (alphabet, k)
            assert word1d._extend_block(list(factors), alphabet) == [
                u + x for u in factors for x in table[u]], (alphabet, k)


def test_block_step_edge_cases(monkeypatch):
    assert word1d._extend_block(["abab"], ("a", "b")) == ["ababa"]
    assert word1d._extend_block(["abab"], "ab") == ["ababa"]
    # the block is consumed as it grows
    words = ["aba", "bab"]
    assert word1d._extend_block(words, "ab") == ["abaa", "abab", "baba"]
    assert words == []
    # a non-factor in the middle of a block, and a letter off the alphabet
    with pytest.raises(NotAFactor, match="'bb'"):
        word1d._extend_block(["ab", "bb", "ba"], "ab")
    with pytest.raises(NotAFactor, match="'ac'"):
        word1d._extend_block(["ab", "ac"], "ab")
    # a prefix too short to hold a letter after the word's first occurrence
    monkeypatch.setattr(word1d, "fib_prefix",
                        lambda alphabet, length: "abaab")
    with pytest.raises(InternalError, match="'aab'"):
        word1d._extend_block(["aab"], "ab")


# the swaps word2d.stream_fills pairs with the row words over dc and the
# column words over db: each renames the line word of one alphabet into
# that of the other, so the factors, their prefix and the block step
# follow; stream_fills finds a swapped side's span and places over db
SWAPS = {"rows": ("dc", "ba", word2d.swap_row_alphabet),
         "cols": ("db", "ca", lambda w: w.translate(word2d._SWAP_COL))}


@pytest.mark.parametrize("line", sorted(SWAPS))
def test_factors_of_the_other_alphabet_are_the_swaps(line):
    first, second, swap = SWAPS[line]
    for n in range(1, 301):
        assert word1d.factors1d(n, second) == tuple(
            map(swap, word1d.factors1d(n, first))), n
        assert word1d.factor_prefix(second, n) == swap(
            word1d.factor_prefix(first, n)), n


@pytest.mark.parametrize("line", sorted(SWAPS))
@settings(deadline=None)
@given(st.integers(1, 80), st.data())
def test_block_step_commutes_with_the_swaps(line, k, data):
    first, second, swap = SWAPS[line]
    block = data.draw(st.lists(st.sampled_from(word1d.factors1d(k, first)),
                               min_size=1, max_size=2 * k + 2))
    assert word1d._extend_block(list(map(swap, block)), second) == list(
        map(swap, word1d._extend_block(list(block), first)))


def test_special_factor_is_reversed_prefix():
    for alphabet in ("ab", "dc", "db"):
        for k in range(1, 31):
            assert (special_factor(k, alphabet)
                    == word1d.fib_prefix(alphabet, k)[::-1])


# ------------------------------------------------------------- conjugates --

def test_rotate1d_values():
    assert word1d.rotate1d("ab", 1) == "ba"
    assert word1d.rotate1d("abaab", 0) == "abaab"
    assert word1d.rotate1d("abaab", 5) == "abaab"
    assert word1d.rotate1d("abaab", -1) == "babaa"


def test_rotate1d_rejects_empty():
    with pytest.raises(EmptyWord):
        word1d.rotate1d("", 1)


@given(st.text(alphabet="ab", min_size=1, max_size=30), st.integers(-100, 100))
def test_rotate1d_round_trip(w, p):
    assert word1d.rotate1d(word1d.rotate1d(w, p), -p) == w


def test_special_conjugate1d_values():
    assert word1d.special_conjugate1d(4, "ab") == Q_4_AB
    assert word1d.special_conjugate1d(3, "ba") == "abb"
    with pytest.raises(ValueError):
        word1d.special_conjugate1d(1, "ab")


def test_special_conjugate_prefixes_enumerate_factors():
    # prefixes of the backward rotations spell every factor of each length
    for alphabet in ("ab", "ba"):
        for n in range(3, 8):
            q = word1d.special_conjugate1d(n, alphabet)
            for k in (1, 2, word1d.fib(n, "F11") - 1):
                prefixes = {word1d.rotate1d(q, -p)[:k] for p in range(k + 1)}
                assert prefixes == set(word1d.factors1d(k, alphabet))


# ------------------------------------------------------------ occurrences --

def test_shortest_truncated_index():
    assert word1d.shortest_truncated_index("a", "ab") == 2
    assert word1d.shortest_truncated_index("abab", "ab") == 5
    with pytest.raises(ValueError):
        word1d.shortest_truncated_index("", "ab")
    with pytest.raises(NotAFactor):
        word1d.shortest_truncated_index("bb", "ab")


def test_shortest_truncated_index_matches_loop():
    # the first-occurrence formula against the loop over truncated words,
    # on every factor up to length 60 and on all factors of three long ones
    for alphabet in ALPHABETS:
        for k in (*range(1, 61), 100, 233, 500):
            for u in word1d.factors1d(k, alphabet):
                assert (word1d.shortest_truncated_index(u, alphabet)
                        == shortest_truncated_index_loop(u, alphabet)), u


@settings(max_examples=300)
@given(st.sampled_from(ALPHABETS), st.data())
def test_shortest_truncated_index_rejects_non_factors_like_loop(alphabet,
                                                                 data):
    letters = data.draw(st.sampled_from([alphabet, "abcd"]))
    u = data.draw(st.text(alphabet=letters, min_size=1, max_size=60))
    assume(u not in factor_set(len(u), alphabet))
    with pytest.raises(NotAFactor):
        word1d.shortest_truncated_index(u, alphabet)
    with pytest.raises(NotAFactor):
        shortest_truncated_index_loop(u, alphabet)


def test_first_occ1d_values():
    assert word1d.first_occ1d("d", "dc") == 0
    assert word1d.first_occ1d("ddb", "db") == 2
    assert word1d.first_occ1d("abab", "ab") == 3


def test_occ1d_values():
    assert word1d.occ1d("abab", "ab", 33) == OCC_ABAB_BELOW_33
    assert word1d.occ1d("abab", "ab", 3) == ()
    assert word1d.occ1d("abab", "ab", 4) == (3,)
    with pytest.raises(ValueError):
        word1d.occ1d("abab", "ab", -1)


def test_occ1d_matches_window_scan():
    bound = 144
    for alphabet in ("ab", "db"):
        w = word1d.fib_prefix(alphabet, bound + 6)
        for k in range(1, 6):
            for u in word1d.factors1d(k, alphabet):
                naive = tuple(i for i in range(bound) if w[i:i + k] == u)
                assert word1d.occ1d(u, alphabet, bound) == naive


def test_first_occurrence_checks_its_scan_bound(monkeypatch, capsys):
    # truncated words one letter short: 'aba' ends truncated(3, 'ab'),
    # 'aba', so the scan that should find it there cannot
    truncated = word1d.truncated
    monkeypatch.setattr(word1d, "truncated",
                        lambda n, alphabet: truncated(n, alphabet)[:-1])
    with pytest.raises(InternalError) as err:
        word1d.occ1d("aba", "ab", 50)
    assert str(err.value).startswith("'aba' not in truncated(3, 'ab'), ")
    # the row word of this factor is 'bab' over ('b', 'a'), which ends
    # truncated(3, 'ba'), 'bab', in the same way
    monkeypatch.setattr("sys.stdin", io.StringIO("bab\n"))
    code = cli.main(["locate", "--file", "-", "--row-bound", "50",
                     "--col-bound", "50"])
    out, err = capsys.readouterr()
    assert (code, out) == (13, "")
    assert err.startswith("error: 'bab' not in truncated(3, 'ba'), "), err


@given(st.sampled_from(ALPHABETS), st.integers(1, 50), st.integers(0, 10**4),
       st.data())
def test_occ1d_matches_find_scan(alphabet, k, bound, data):
    u = data.draw(st.sampled_from(word1d.factors1d(k, alphabet)))
    w = word1d.fib_prefix(alphabet, bound + k)
    naive = []
    i = w.find(u)
    while 0 <= i < bound:
        naive.append(i)
        i = w.find(u, i + 1)
    assert word1d.occ1d(u, alphabet, bound) == tuple(naive)


# one broken invariant per case: the patch applied, the call that trips it,
# and the complaint expected on stderr
INVARIANT_BREAKS = {
    "zeckendorf-gap": ("word1d.fib = lambda n, numbering: 2 ** n",
                       "word1d.zeck_repr(3)", "are adjacent"),
    "sturmian-complexity": (
        "word1d.fib_prefix = lambda alph, length: ('aabb' * length)[:length]",
        "word1d.factors1d(2, 'ab')", "4 factors of length 2"),
    "first-occurrence-scan": (
        "word1d.shortest_truncated_index = lambda u, alph: 2",
        "word1d.first_occ1d('abaababaab', 'ab')", "scan bound"),
}


@pytest.mark.parametrize("case", sorted(INVARIANT_BREAKS))
def test_invariant_checks_survive_optimize(case):
    # python -O strips assert statements; these paper invariants must still
    # raise InternalError, whose exit code is 13
    patch, call, complaint = INVARIANT_BREAKS[case]
    script = ("import sys\n"
              "if __debug__:\n"
              "    sys.exit('not optimized')\n"
              "from fib2d import word1d\n"
              "from fib2d.errors import EXIT_CODES, InternalError\n"
              f"{patch}\n"
              "try:\n"
              f"    {call}\n"
              "except InternalError as exc:\n"
              "    print(f'error: {exc}', file=sys.stderr)\n"
              "    sys.exit(EXIT_CODES[type(exc)])\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(fib2d.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 13, proc.stderr
    assert proc.stderr.startswith("error:")
    assert complaint in proc.stderr
