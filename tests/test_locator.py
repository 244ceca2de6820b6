"""Unit tests for arithmetic occurrence location of grid factors."""

from __future__ import annotations

import pytest

from fib2d import locator, oracle, word2d
from fib2d.errors import NotAFactor

from reference import window_places
from tables import OCC_BLOCK, OCC_BLOCK_AXIS, WORDS_2_2, WORDS_3_3


def test_first_occ2d_values():
    assert locator.first_occ2d(("d",)) == (0, 0)
    assert locator.first_occ2d(("cd", "ab")) == (0, 1)
    assert locator.first_occ2d(OCC_BLOCK) == (2, 2)


def test_first_occ2d_rejects_non_factors():
    with pytest.raises(NotAFactor):
        locator.first_occ2d(("cc", "aa"))


def test_occ2d_is_a_cartesian_product():
    hits = locator.occ2d(OCC_BLOCK, 21, 21)
    assert hits == tuple((x, y) for x in OCC_BLOCK_AXIS for y in OCC_BLOCK_AXIS)


def test_occ2d_bounds():
    assert locator.occ2d(OCC_BLOCK, 2, 2) == ()
    assert locator.occ2d(OCC_BLOCK, 3, 3) == ((2, 2),)
    with pytest.raises(ValueError):
        locator.occ2d(OCC_BLOCK, -1, 5)


def test_occ2d_matches_window_scan():
    # the arithmetic occurrence set equals naive matching on a real prefix
    bound = 40
    for w in WORDS_2_2 + WORDS_3_3:
        rows, cols = word2d.dims(w)
        scanned = oracle.oracle_occurrences(w, bound + rows - 1, bound + cols - 1)
        assert locator.occ2d(w, bound, bound) == scanned


def test_first_occ2d_matches_window_scan():
    for w in WORDS_3_3:
        assert locator.first_occ2d(w) == oracle.oracle_occurrences(w, 40, 40)[0]


# every size to (12,12), and the thin sizes to 30
EVERY_FACTOR_SIZES = sorted({(k, l) for k in range(1, 13) for l in range(1, 13)}
                            | {(n, 1) for n in range(1, 31)}
                            | {(1, n) for n in range(1, 31)})


@pytest.mark.parametrize("k, l", EVERY_FACTOR_SIZES)
def test_locate_every_factor_against_a_scan(k, l):
    # every factor occurs in the prefix that holds them all, and each of
    # its places there is a product pair, found by slicing every place
    R, C = oracle.sufficient_bounds(k, l)
    places = window_places(k, l, R, C)
    for text in oracle.stream_subwords(k, l, R, C):
        w = word2d.parse_text(text)
        assert locator.occ2d(w, R - k + 1, C - l + 1) == tuple(places[w])
        assert locator.first_occ2d(w) == places[w][0]
