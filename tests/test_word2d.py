"""Unit tests for grids: shapes, concatenation, the recursions, structure."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fib2d import word1d, word2d
from fib2d.errors import NotFibStructured, OutOfDomain, ShapeMismatch

F33 = ("dcd", "bab", "dcd")


# ------------------------------------------------------------------ shape --

def test_dims_and_empty():
    assert word2d.dims(word2d.EMPTY) == (0, 0)
    assert word2d.dims(F33) == (3, 3)


def test_as_grid_validation():
    assert word2d.as_grid(["dc", "ba"]) == ("dc", "ba")
    assert word2d.as_grid([]) == word2d.EMPTY
    with pytest.raises(ShapeMismatch):
        word2d.as_grid(["dc", "b"])
    with pytest.raises(ShapeMismatch):
        word2d.as_grid([""])
    with pytest.raises(ValueError):
        word2d.as_grid(["dx"])


def test_column_is_one_based():
    assert word2d.column(F33, 1) == "dbd"
    assert word2d.column(F33, 3) == "dbd"
    assert word2d.column(F33, 2) == "cac"
    with pytest.raises(OutOfDomain):
        word2d.column(F33, 0)
    with pytest.raises(OutOfDomain):
        word2d.column(F33, 4)


def test_text_round_trip():
    assert word2d.to_text(F33) == "dcd\nbab\ndcd\n"
    assert word2d.parse_text("dcd\nbab\ndcd\n") == F33
    assert word2d.parse_text("dcd\n\nbab\ndcd") == F33  # blank lines ignored
    assert word2d.to_text(word2d.EMPTY) == ""


def test_to_text_matches_per_row_concatenation():
    for w in ((), ("d",), word2d.mu_prefix(1100, 1), word2d.mu_prefix(3, 2000)):
        assert word2d.to_text(w) == "".join(row + "\n" for row in w)


def test_alphabet_helpers():
    assert word2d.swap_row_alphabet("dcab") == "bacd"
    assert word2d.row_alphabet_of("c") == "dc"
    assert word2d.row_alphabet_of("a") == "ba"
    assert word2d.col_alphabet_of("b") == "db"
    assert word2d.col_alphabet_of("c") == "ca"
    with pytest.raises(ValueError):
        word2d.row_alphabet_of("x")


def test_fill():
    assert word2d.fill("dcd", "dbd") == F33
    assert word2d.fill("ab", "ac") == ("ab", "cd")
    assert word2d.fill("d", "d") == ("d",)


@given(st.text(alphabet="abcd", max_size=40))
def test_swap_row_alphabet_is_involution(w):
    assert word2d.swap_row_alphabet(word2d.swap_row_alphabet(w)) == w


# --------------------------------------------------------- concatenations --

def test_concat_neutral_element():
    assert word2d.concat_col(word2d.EMPTY, F33) == F33
    assert word2d.concat_col(F33, word2d.EMPTY) == F33
    assert word2d.concat_row(word2d.EMPTY, F33) == F33
    assert word2d.concat_row(F33, word2d.EMPTY) == F33


def test_concat_values():
    assert word2d.concat_col(("dc", "ba"), ("d", "b")) == ("dcd", "bab")
    assert word2d.concat_row(("dc",), ("ba",)) == ("dc", "ba")


def test_concat_shape_errors():
    with pytest.raises(ShapeMismatch):
        word2d.concat_col(("dc", "ba"), ("d",))
    with pytest.raises(ShapeMismatch):
        word2d.concat_row(("dc",), ("b",))


# -------------------------------------------------------- Fibonacci grids --

def test_fib_array_values():
    assert word2d.fib_array(0, 0) == ("a",)
    assert word2d.fib_array(1, 1) == ("d",)
    assert word2d.fib_array(2, 2) == ("dc", "ba")
    assert word2d.fib_array(2, 3) == ("dcd", "bab")
    assert word2d.fib_array(3, 3) == F33


def test_fib_array_sizes():
    for m in range(8):
        for n in range(8):
            rows, cols = word2d.dims(word2d.fib_array(m, n))
            assert rows == word1d.fib(m, "F11")
            assert cols == word1d.fib(n, "F11")


def test_fib_array_recursions():
    for m in range(2, 7):
        for n in range(2, 7):
            f = word2d.fib_array
            assert f(m, n + 1) == word2d.concat_col(f(m, n), f(m, n - 1))
            assert f(m + 1, n) == word2d.concat_row(f(m, n), f(m - 1, n))


def test_fib_array_rejects_bad_input():
    with pytest.raises(ValueError):
        word2d.fib_array(-1, 2)


def test_mu_prefix_values():
    assert word2d.mu_prefix(1, 1) == ("d",)
    assert word2d.mu_prefix(2, 2) == ("dc", "ba")
    assert word2d.mu_prefix(3, 3) == F33
    assert word2d.mu_prefix(5, 5) == ("dcddc", "babba", "dcddc", "dcddc", "babba")
    assert word2d.mu_prefix(2, 5) == ("dcddc", "babba")
    with pytest.raises(ValueError):
        word2d.mu_prefix(0, 3)


def test_mu_prefix_extends_fib_array():
    # the finite grids are the corners of the expanded fixed point
    for m in range(2, 9):
        for n in range(2, 9):
            rows = word1d.fib(m, "F11")
            cols = word1d.fib(n, "F11")
            assert word2d.mu_prefix(rows, cols) == word2d.fib_array(m, n)


def test_mu_prefix_matches_uncropped_substitution():
    # the reference substitutes whole squares and crops once at the end
    g = ("d",)
    while len(g) < 1000:
        g = word2d._square_step(g)
    for rows, cols in ((1, 1000), (1000, 1), (7, 300), (300, 7)):
        assert word2d.mu_prefix(rows, cols) == tuple(r[:cols] for r in g[:rows])


def test_mu_prefix_lines_are_fibonacci_words():
    g = word2d.mu_prefix(34, 34)
    # rows are the (d,c)/(b,a) words, columns the (d,b)/(c,a) words
    for row in g:
        alphabet = word2d.row_alphabet_of(row[0])
        assert row == word1d.fib_prefix(alphabet, 34)
    for j in range(1, 35):
        col = word2d.column(g, j)
        alphabet = word2d.col_alphabet_of(col[0])
        assert col == word1d.fib_prefix(alphabet, 34)


# -------------------------------------------------------------- structure --

def test_subblock():
    assert word2d.subblock(F33, (1, 1), (2, 2)) == ("dc", "ba")
    assert word2d.subblock(F33, (2, 2), (3, 3)) == ("ab", "cd")
    assert word2d.subblock(F33, (1, 1), (3, 3)) == F33
    with pytest.raises(ValueError):
        word2d.subblock(F33, (2, 2), (1, 1))
    with pytest.raises(OutOfDomain):
        word2d.subblock(F33, (1, 1), (4, 3))
    with pytest.raises(OutOfDomain):
        word2d.subblock(F33, (0, 1), (2, 2))


def test_classify_lines():
    tags = word2d.classify_lines(F33)
    assert tags.rows == ("dc", "ba", "dc")
    assert tags.cols == ("db", "ca", "db")
    assert word2d.classify_lines(("d",)) == (("dc",), ("db",))


def _classify_lines_per_line(w):
    # reference: tag every line, then require equal lines per tag
    def tag(line, alphabets):
        for alph in alphabets:
            if set(line) <= set(alph):
                return alph
        raise NotFibStructured(line)

    def same_per_tag(lines, tags):
        first = {}
        for line, t in zip(lines, tags):
            if first.setdefault(t, line) != line:
                raise NotFibStructured(t)

    if not w:
        raise ValueError("empty")
    cols = [word2d.column(w, j + 1) for j in range(len(w[0]))]
    row_tags = tuple(tag(r, word2d.ROW_ALPHABETS) for r in w)
    col_tags = tuple(tag(c, word2d.COL_ALPHABETS) for c in cols)
    same_per_tag(w, row_tags)
    same_per_tag(cols, col_tags)
    return word2d.LineTags(row_tags, col_tags)


def _outcome(f, w):
    try:
        return f(w)
    except (ValueError, NotFibStructured) as exc:
        return type(exc)


def test_classify_lines_matches_per_line_definition():
    # every grid over abcd with at most 6 cells
    for rows in range(1, 7):
        for cols in range(1, 6 // rows + 1):
            for letters in product("abcd", repeat=rows * cols):
                w = tuple("".join(letters[i * cols:(i + 1) * cols])
                          for i in range(rows))
                assert (_outcome(word2d.classify_lines, w)
                        == _outcome(_classify_lines_per_line, w)), w


def test_classify_lines_rejects_foreign_grids():
    with pytest.raises(ValueError):
        word2d.classify_lines(word2d.EMPTY)
    with pytest.raises(NotFibStructured):
        word2d.classify_lines(("da",))  # row mixes the two row alphabets
    with pytest.raises(NotFibStructured):
        word2d.classify_lines(("dc", "dd"))  # column 2 mixes c and d

