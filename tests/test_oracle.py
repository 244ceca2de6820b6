"""Unit tests for the brute-force oracle and the verification report."""

from __future__ import annotations

import random

import pytest

from fib2d import oracle, word2d
from fib2d.errors import BadBounds

from tables import OCC_BLOCK, WORDS_1_1, WORDS_2_2, WORDS_3_3


def test_sufficient_bounds_values():
    assert oracle.sufficient_bounds(1, 1) == (5, 5)
    assert oracle.sufficient_bounds(2, 2) == (8, 8)
    assert oracle.sufficient_bounds(4, 4) == (13, 13)
    assert oracle.sufficient_bounds(8, 8) == (34, 34)
    with pytest.raises(ValueError):
        oracle.sufficient_bounds(0, 1)


def test_oracle_subwords_small_catalogs():
    assert oracle.oracle_subwords(1, 1, 2, 2) == WORDS_1_1
    assert oracle.oracle_subwords(2, 2, 30, 30) == WORDS_2_2
    assert oracle.oracle_subwords(3, 3, 50, 50) == WORDS_3_3


def test_oracle_subwords_is_monotone():
    for k, l in ((1, 2), (2, 2), (3, 4)):
        small = set(oracle.oracle_subwords(k, l, 10, 10))
        large = set(oracle.oracle_subwords(k, l, 25, 25))
        assert small <= large


def test_oracle_subwords_rejects_small_prefix():
    with pytest.raises(BadBounds):
        oracle.oracle_subwords(3, 3, 2, 9)
    with pytest.raises(ValueError):
        oracle.oracle_subwords(0, 1, 5, 5)


def _windows_reference(k, l, R, C):
    # one generator per window, as before the band harvest
    g = word2d.mu_prefix(R, C)
    return tuple(sorted({tuple(row[j:j + l] for row in g[i:i + k])
                         for i in range(R - k + 1)
                         for j in range(C - l + 1)}))


def _occurrences_reference(w, R, C):
    # letter-by-letter matching, as before the band harvest
    g = word2d.mu_prefix(R, C)
    rows, cols = word2d.dims(w)
    return tuple((i, j)
                 for i in range(R - rows + 1)
                 for j in range(C - cols + 1)
                 if all(g[i + r][j:j + cols] == w[r] for r in range(rows)))


def test_oracle_subwords_matches_window_reference():
    sizes = [(k, l) for k in range(1, 13) for l in range(1, 13)]
    sizes += [(300, 1), (1, 300), (300, 2), (2, 300), (30, 70), (70, 30)]
    for k, l in sizes:
        R, C = oracle.sufficient_bounds(k, l)
        assert oracle.oracle_subwords(k, l, R, C) == \
            _windows_reference(k, l, R, C), (k, l)


def test_oracle_occurrences_matches_letter_scan():
    for w in WORDS_2_2 + WORDS_3_3:
        assert oracle.oracle_occurrences(w, 40, 40) == \
            _occurrences_reference(w, 40, 40), w
    rng = random.Random(6)
    g = word2d.mu_prefix(120, 120)
    for _ in range(200):
        k, l = rng.randint(1, 6), rng.randint(1, 6)
        i, j = rng.randrange(120 - k + 1), rng.randrange(120 - l + 1)
        w = tuple(row[j:j + l] for row in g[i:i + k])
        R, C = rng.randint(k, 80), rng.randint(l, 80)
        assert oracle.oracle_occurrences(w, R, C) == \
            _occurrences_reference(w, R, C), (w, R, C)


def test_oracle_occurrences_values():
    assert oracle.oracle_occurrences(("d",), 2, 2) == ((0, 0),)
    hits = oracle.oracle_occurrences(OCC_BLOCK, 25, 25)
    assert hits[:3] == ((2, 2), (2, 7), (2, 10))
    # a structurally fine block that never occurs
    assert oracle.oracle_occurrences(("cc", "aa"), 30, 30) == ()


def test_oracle_occurrences_rejects_small_prefix():
    with pytest.raises(BadBounds):
        oracle.oracle_occurrences(OCC_BLOCK, 2, 25)
    with pytest.raises(ValueError):
        oracle.oracle_occurrences((), 5, 5)


def test_verify_reports():
    report = oracle.verify(2, 2)
    assert report["ok"]
    assert report["expected"] == 9
    assert report["sizes"] == {"conjugate": 9, "dawg": 9, "extend": 9,
                               "oracle": 9, "prefix": 9}
    assert report["methods_agree"] and report["oracle_stable"]
    assert oracle.verify(3, 3)["expected"] == 16
    assert oracle.verify(3, 3)["ok"]
    assert oracle.verify(5, 3)["expected"] == 24
    assert oracle.verify(5, 3)["ok"]


def test_verify_skips_prefix_method_below_size_two():
    report = oracle.verify(1, 3)
    assert report["ok"]
    assert sorted(report["sizes"]) == ["conjugate", "dawg", "extend", "oracle"]


def test_verify_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle.verify(0, 1)
