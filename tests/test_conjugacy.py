"""Unit tests for grid rotations and the conjugation enumerations."""

from __future__ import annotations

import builtins

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fib2d import conjugacy, word1d, word2d
from fib2d.errors import EmptyWord, InternalError, OutOfRange, ShapeMismatch

from tables import Q_2_2, Q_3_3, ROTATION_PREFIXES_3_3, WORDS_2_2, WORDS_3_3

F33 = ("dcd", "bab", "dcd")


# -------------------------------------------------------------- rotations --

def test_rotate2d_values():
    assert conjugacy.rotate2d(F33, 0, 0) == F33
    assert conjugacy.rotate2d(F33, 3, 3) == F33
    assert conjugacy.rotate2d(F33, 1, 1) == ("abb", "cdd", "cdd")
    assert conjugacy.rotate2d(("dc", "ba"), 1, 0) == ("ba", "dc")
    assert conjugacy.rotate2d(("dc", "ba"), 0, -1) == ("cd", "ab")


def test_rotate2d_rejects_empty():
    with pytest.raises(EmptyWord):
        conjugacy.rotate2d(word2d.EMPTY, 1, 1)


def test_rotate2d_rejects_an_empty_row():
    with pytest.raises(ShapeMismatch, match="empty rows"):
        conjugacy.rotate2d(("",), 1, 1)


def test_rotate2d_rejects_a_ragged_grid():
    with pytest.raises(ShapeMismatch, match="rows have unequal lengths"):
        conjugacy.rotate2d(("ab", ""), 1, 1)


@given(st.integers(0, len(WORDS_3_3) - 1),
       st.integers(-9, 9), st.integers(-9, 9))
def test_rotate2d_round_trip(idx, i, j):
    w = WORDS_3_3[idx]
    assert conjugacy.rotate2d(conjugacy.rotate2d(w, i, j), -i, -j) == w


def test_rotate2d_composes():
    assert (conjugacy.rotate2d(conjugacy.rotate2d(F33, 1, 0), 1, 2)
            == conjugacy.rotate2d(F33, 2, 2))


# --------------------------------------------------------------- classes --

def test_conjugacy_class_of_small_grids():
    assert conjugacy.conjugacy_class(("d",)) == (("d",),)
    assert conjugacy.conjugacy_class(("dc", "ba")) == (
        ("ab", "cd"), ("ba", "dc"), ("cd", "ab"), ("dc", "ba"))
    # a 2x3 grid has at most 6 rotations, all distinct here
    assert len(conjugacy.conjugacy_class(word2d.fib_array(2, 3))) == 6


def test_conjugacy_class_rejects_an_empty_row():
    with pytest.raises(ShapeMismatch, match="empty rows"):
        conjugacy.conjugacy_class(("",))


def test_conjugacy_class_rejects_a_ragged_grid():
    with pytest.raises(ShapeMismatch, match="rows have unequal lengths"):
        conjugacy.conjugacy_class(("ab", "c"))


def test_conjugacy_class_size_law():
    # primitive grids: the class has exactly rows * cols members
    for m in range(0, 7):
        for n in range(0, 7):
            size = len(conjugacy.conjugacy_class(word2d.fib_array(m, n)))
            assert size == word1d.fib(m, "F11") * word1d.fib(n, "F11")


def test_conjugacy_class_of_imprimitive_grid_is_smaller():
    assert conjugacy.conjugacy_class(("dc", "dc")) == (("cd", "cd"), ("dc", "dc"))


def test_conjugacy_class_shares_equal_rows():
    # each distinct row is rotated once per column exponent; a rotation per
    # grid would give rows * cols row objects to each of the rows * cols grids
    for m, n in ((6, 6), (5, 8), (8, 5)):
        w = word2d.fib_array(m, n)
        rows = {id(r) for g in conjugacy.conjugacy_class(w) for r in g}
        assert len(rows) <= len(set(w)) * len(w[0])


def test_conjugacy_class_rejects_empty():
    with pytest.raises(ValueError):
        conjugacy.conjugacy_class(word2d.EMPTY)


# ------------------------------------------------- distinguished conjugate --

def test_special_conjugate2d_values():
    assert conjugacy.special_conjugate2d(2, 2) == Q_2_2
    assert conjugacy.special_conjugate2d(3, 3) == Q_3_3
    with pytest.raises(ValueError):
        conjugacy.special_conjugate2d(1, 3)


def test_special_conjugate2d_is_a_conjugate():
    for m, n in ((2, 2), (3, 3), (3, 4), (4, 4)):
        q = conjugacy.special_conjugate2d(m, n)
        assert q in conjugacy.conjugacy_class(word2d.fib_array(m, n))


def _rotated_special_conjugate(m, n):
    # reference: rotate the whole grid by the parity-dependent shifts
    return conjugacy.rotate2d(word2d.fib_array(m, n),
                              word1d.fib(m - m % 2, "F11") - 1,
                              word1d.fib(n - n % 2, "F11") - 1)


def test_special_conjugate2d_matches_rotated_grid():
    for m in range(2, 15):
        for n in range(2, 15):
            assert (conjugacy.special_conjugate2d(m, n)
                    == _rotated_special_conjugate(m, n)), (m, n)


def test_inverse_rotations_and_prefixes():
    for (i, j), (conj, prefix) in ROTATION_PREFIXES_3_3.items():
        w = conjugacy.rotate2d(Q_3_3, -i, -j)
        assert w == conj
        assert word2d.subblock(w, (1, 1), (2, 2)) == prefix
    prefixes = {p for _, p in ROTATION_PREFIXES_3_3.values()}
    assert prefixes == set(WORDS_2_2)


# ------------------------------------------------------------- enumeration --

def test_conjugation_reads_one_corner_per_factor(monkeypatch):
    # one rotation too many on each axis: the extra corners repeat factors,
    # so the output and its count stay right, and only the corner count
    # tells that the method read (k+2)(l+2) corners
    monkeypatch.setattr(conjugacy, "range", lambda n: builtins.range(n + 1),
                        raising=False)
    for k, l in ((2, 2), (3, 5), (10, 10), (1, 7), (7, 1), (40, 40)):
        with pytest.raises(InternalError) as err:
            conjugacy.stream_conjugation(k, l)
        assert str(err.value) == (f"size ({k},{l}) has {(k + 1) * (l + 1)} "
                                  f"subwords, conjugation corners gave "
                                  f"{(k + 2) * (l + 2)}"), (k, l)


def test_enumerate_conjugation_rejects_bad_input():
    with pytest.raises(ValueError):
        conjugacy.enumerate_conjugation(0, 1)


def test_prefix_rotation_exponents():
    # k+1 exponents: an initial run plus a tail run up to fib(m+1)-1
    assert conjugacy._prefix_rotations(2, 2) == (0, 1, 2)
    assert conjugacy._prefix_rotations(3, 3) == (0, 1, 2, 4)
    assert conjugacy._prefix_rotations(4, 3) == (0, 1, 2, 3, 4)


def test_enumerate_prefix_conjugates_needs_size_two():
    for k, l in ((1, 1), (1, 2), (2, 1)):
        with pytest.raises(OutOfRange):
            conjugacy.enumerate_prefix_conjugates(k, l)

