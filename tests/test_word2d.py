"""Unit tests for grids: shapes, the recursions, structure, windows."""

from __future__ import annotations

import ast
import inspect
from itertools import product
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fib2d import word1d, word2d
from fib2d.errors import (InternalError, NotFibStructured, OutOfDomain,
                          ShapeMismatch)

from reference import parse_text_loop

F33 = ("dcd", "bab", "dcd")


# ------------------------------------------------------------------ shape --

def test_dims_and_empty():
    assert word2d.dims(()) == (0, 0)
    assert word2d.dims(F33) == (3, 3)


def _owners(match) -> list[str]:
    """module.function of each node of the package's modules for which
    match(node) holds."""
    found = []
    for path in sorted(Path(word2d.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        # ast.walk goes outside in, so a nested function's nodes end up its
        # own
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        found += [f"{path.stem}.{owner.get(node)}" for node in ast.walk(tree)
                  if match(node)]
    return found


def _raises_subword_count(node) -> bool:
    """Whether node raises InternalError with a message on subwords."""
    return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "InternalError"
            and any(isinstance(part, ast.Constant)
                    and "subwords" in str(part.value)
                    for part in ast.walk(node.exc)))


def _calls_fill_text(node) -> bool:
    return isinstance(node, ast.Call) and "fill_text" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_count_law_is_raised_in_one_place():
    # every enumeration calls word2d.count_law, so the law and its message
    # are written once
    assert _owners(_raises_subword_count) == ["word2d.count_law"]


def test_texts_are_filled_in_one_place():
    # dawg and extend cut every text from a lane that stream_fills fills,
    # so no other code fills a text
    assert _owners(_calls_fill_text) == ["word2d.stream_fills"]


def test_as_grid_validation():
    # text read as a grid: parse_text's checks
    assert word2d.parse_text("dc\nba\n") == ("dc", "ba")
    assert word2d.parse_text("") == ()
    with pytest.raises(ShapeMismatch):
        word2d.parse_text("dc\nb\n")
    # blank lines are dropped, so no row is empty
    assert word2d.parse_text("\n \n\t\n") == ()
    with pytest.raises(ValueError):
        word2d.parse_text("dx\n")


@pytest.mark.parametrize("rows", [
    ["dx", "ba"],              # a bad letter in the first row
    ["xd", "bb"],
    ["dc", "bé", "ab"],        # in a later row
    ["dc", "b-x"],             # a ragged row holding bad letters
    ["dc", "ab", "b", "xy"],   # a ragged row before a bad letter
    ["d c", "ba"],
    ["dc", "BA"],
    ["dcb\t", "dca\t"],        # white space in a line that is not blank
])
def test_as_grid_rejects_as_the_letter_loop(rows):
    text = "".join(row + "\n" for row in rows)
    with pytest.raises((ValueError, ShapeMismatch)) as loop:
        parse_text_loop(text)
    with pytest.raises((ValueError, ShapeMismatch)) as table:
        word2d.parse_text(text)
    assert (type(table.value), str(table.value)) == (
        type(loop.value), str(loop.value))


_LINES = st.one_of(st.sampled_from(["", " ", "\t", "  \t"]),  # blank
                   st.text("abcd", min_size=1, max_size=4),
                   st.text("abcdxB \t-é", max_size=4))


@given(st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n"])),
                max_size=6), st.booleans())
def test_parse_text_reads_text_as_the_letter_loop(lines, last):
    # blank, white-space, CRLF and ragged lines and letters outside abcd:
    # the same grid or the same error, and never an empty row
    text = "".join(line + end for line, end in lines)
    if lines and not last:
        text = text.rstrip("\r\n")  # no line break after the last line
    try:
        want = parse_text_loop(text)
    except (ValueError, ShapeMismatch) as exc:
        with pytest.raises(type(exc)) as got:
            word2d.parse_text(text)
        assert str(got.value) == str(exc)
    else:
        assert word2d.parse_text(text) == want
        assert all(want)


def test_column_is_one_based():
    assert word2d.column(F33, 1) == "dbd"
    assert word2d.column(F33, 3) == "dbd"
    assert word2d.column(F33, 2) == "cac"
    with pytest.raises(OutOfDomain):
        word2d.column(F33, 0)
    with pytest.raises(OutOfDomain):
        word2d.column(F33, 4)


def test_column_rejects_a_ragged_grid():
    with pytest.raises(ShapeMismatch, match="rows have unequal lengths"):
        word2d.column(("ab", "c"), 2)


def test_text_round_trip():
    assert word2d.to_text(F33) == "dcd\nbab\ndcd\n"
    assert word2d.parse_text("dcd\nbab\ndcd\n") == F33
    assert word2d.parse_text("dcd\n\nbab\ndcd") == F33  # blank lines ignored
    assert word2d.to_text(()) == ""


def test_to_text_matches_per_row_concatenation():
    for w in ((), ("d",), word2d.mu_prefix(1100, 1), word2d.mu_prefix(3, 2000)):
        assert word2d.to_text(w) == "".join(row + "\n" for row in w)


def test_alphabet_helpers():
    assert word2d.swap_row_alphabet("dcab") == "bacd"
    assert word2d.row_alphabet_of("c") == "dc"
    assert word2d.row_alphabet_of("a") == "ba"
    assert word2d.col_alphabet_of("b") == "db"
    assert word2d.col_alphabet_of("c") == "ca"
    for bad in ("x", "", "ab", "cd"):
        with pytest.raises(ValueError):
            word2d.row_alphabet_of(bad)
        with pytest.raises(ValueError):
            word2d.col_alphabet_of(bad)


def test_fill():
    assert word2d.fill("dcd", "dbd") == F33
    assert word2d.fill("ab", "ac") == ("ab", "cd")
    assert word2d.fill("d", "d") == ("d",)


def _consistent_frames(k, l):
    # every row factor of length l with every column factor of length k
    # that starts with the same letter
    sides = [v for alph in word2d.COL_ALPHABETS
             for v in word1d.factors1d(k, alph)]
    return [(t, v) for alph in word2d.ROW_ALPHABETS
            for t in word1d.factors1d(l, alph) for v in sides if v[0] == t[0]]


def test_fill_text_is_the_text_of_fill():
    assert word2d.fill_text("dcd", "dbd") == "dcd\nbab\ndcd\n"
    assert word2d.fill_text("ab", "ac") == "ab\ncd\n"
    sizes = [(k, l) for k in range(1, 13) for l in range(1, 13)]
    for k, l in sizes + [(1100, 1), (1, 1100), (1100, 2)]:
        frames = _consistent_frames(k, l)
        assert len(frames) == (k + 1) * (l + 1), (k, l)
        for top, side in frames:
            assert (word2d.fill_text(top, side)
                    == word2d.to_text(word2d.fill(top, side))), (top, side)


def _offsets(words, alphabet):
    # each word's first occurrence in the prefix that stream_fills reads
    p = word1d.factor_prefix(alphabet, len(words[0]))
    return [p.find(u) for u in words]


@settings(deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.randoms())
def test_stream_fills_cuts_the_texts_fill_text_fills(k, l, rnd):
    # the tops over dc and the sides over db, in any order
    tops = _offsets(word1d.factors1d(l, "dc"), "dc")
    sides = _offsets(word1d.factors1d(k, "db"), "db")
    rnd.shuffle(tops)
    rnd.shuffle(sides)
    assert tuple(word2d.stream_fills(tops, sides, k, l, 0)) == tuple(
        sorted(word2d.fill_text(top, side)
               for top, side in _consistent_frames(k, l)))


def test_stream_fills_rejects_an_offset_outside_the_prefix():
    # an offset names a word only if the word lies in its prefix: the side
    # offsets of k = 2 run from 0 to len(q) - 2
    q = word1d.factor_prefix("db", 2)
    tops = _offsets(word1d.factors1d(3, "dc"), "dc")
    sides = _offsets(word1d.factors1d(2, "db"), "db")
    texts = list(word2d.stream_fills(tops, sides, 2, 3, 0))
    # the last word of q, read at its last place, is in range
    last = [len(q) - 2 if q[i:i + 2] == q[-2:] else i for i in sides]
    assert last != sides
    assert list(word2d.stream_fills(tops, last, 2, 3, 0)) == texts
    for bad in (-1, len(q) - 1):
        with pytest.raises(InternalError, match=f"length-2 words at offsets "
                                                f"-?[0-9]+..[0-9]+ leave the "
                                                f"prefix of {len(q)}"):
            next(word2d.stream_fills(tops, [*sides, bad], 2, 3, 0))
        with pytest.raises(InternalError, match="length-3 words at offsets"):
            next(word2d.stream_fills([*tops, bad * 2], sides, 2, 3, 0))


def test_stream_fills_rejects_a_lane_without_its_span(monkeypatch):
    # each top is handed the sides that start with its letter at `column`,
    # so its lane has their span as that column; a lane whose every row is
    # its top has it at neither the first column nor the last
    tops = _offsets(word1d.factors1d(3, "dc"), "dc")
    sides = _offsets(word1d.factors1d(2, "db"), "db")
    for column in (0, 2):
        assert len(list(word2d.stream_fills(tops, sides, 2, 3, column))) == 12
    monkeypatch.setattr(word2d, "fill_text",
                        lambda top, side: (top + "\n") * len(side))
    for column in (0, 2):
        with pytest.raises(InternalError,
                           match=f"as its column {column + 1}"):
            next(word2d.stream_fills(tops, sides, 2, 3, column))


class _Unsearched(str):
    """A line word's prefix that is only sliced, never searched."""

    def find(self, *args):
        raise AssertionError("a word is found, not read at its offset")


def test_stream_fills_builds_the_column_prefix_once(monkeypatch):
    # the sides are column words over db, whatever their first letter, so
    # one prefix holds the sides of both corner letters, d and b; each
    # word is read at its offset, with no find
    built = []

    def prefix(alphabet, k):
        built.append((alphabet, k))
        return _Unsearched(word1d.factor_prefix(alphabet, k))

    monkeypatch.setattr(word2d, "factor_prefix", prefix)
    tops = _offsets(word1d.factors1d(3, "dc"), "dc")
    sides = _offsets(word1d.factors1d(5, "db"), "db")
    q = word1d.factor_prefix("db", 5)
    assert {q[i] for i in sides} == {"b", "d"}
    assert len(list(word2d.stream_fills(tops, sides, 5, 3, 0))) == 24
    assert built == [("dc", 3), ("db", 5)]


def test_stream_fills_rejects_a_top_whose_corner_starts_no_side():
    # the side dd and its swap cc start with d and c, so the swap ba of
    # the top dc has a corner letter, b, that starts no side
    tops, sides = _offsets(["dc"], "dc"), _offsets(["dd"], "db")
    with pytest.raises(InternalError, match="corner letter 'b' of top 'ba'"):
        next(word2d.stream_fills(tops, sides, 2, 2, 0))
    # at the last column the corner letters are c and a
    with pytest.raises(InternalError, match="corner letter 'a' of top 'ba'"):
        next(word2d.stream_fills(tops, sides, 2, 2, 1))


@given(st.text(alphabet="abcd", max_size=40))
def test_swap_row_alphabet_is_involution(w):
    assert word2d.swap_row_alphabet(word2d.swap_row_alphabet(w)) == w


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


def _expand(x0, x1, steps, cat):
    # x_{i+1} = cat(x_i, x_{i-1})
    a, b = x0, x1
    for _ in range(steps):
        a, b = b, cat(b, a)
    return a


def _recursion_array(m, n):
    # reference: the 2D recursion, grown by grid concatenation, columns first
    def concat_col(u, v):  # u left, v right
        assert len(u) == len(v)
        return tuple(a + b for a, b in zip(u, v))

    def concat_row(u, v):  # u on top, v below
        assert len(u[0]) == len(v[0])
        return u + v

    top = _expand(("a",), ("b",), n, concat_col)
    bottom = _expand(("c",), ("d",), n, concat_col)
    return _expand(top, bottom, m, concat_row)


def test_fib_array_recursions():
    for m in range(13):
        for n in range(13):
            assert word2d.fib_array(m, n) == _recursion_array(m, n), (m, n)


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


def _per_letter_step(g):
    # reference substitution, one letter at a time:
    # d -> dc/ba, c -> d/b, b -> dc, a -> d
    out = []
    for row in g:
        if row[0] in "dc":
            out.append("".join("dc" if ch == "d" else "d" for ch in row))
            out.append("".join("ba" if ch == "d" else "b" for ch in row))
        else:
            out.append("".join("dc" if ch == "b" else "d" for ch in row))
    return tuple(out)


def _line(width):
    return st.sampled_from(word2d.ROW_ALPHABETS).flatmap(
        lambda alph: st.text(alph, min_size=width, max_size=width))


# random grids of whole lines, with repeated and unrepeated rows
@given(st.integers(1, 12).flatmap(
    lambda width: st.lists(_line(width), min_size=1, max_size=10)))
@example(["d"])
@example(["b"])
@example(["dcc", "ddc", "bba", "aab"])
@example(list(word2d.mu_prefix(13, 21)))
@example(list(word2d.mu_prefix(40, 7)))
def test_square_step_matches_per_letter_substitution(g):
    g = tuple(g)
    # the image is at most twice as tall and wide, so nothing is cropped
    assert word2d._square_step(g, 2 * len(g), 2 * len(g[0])) == \
        _per_letter_step(g)


def test_mu_prefix_matches_uncropped_substitution():
    # the reference substitutes whole squares and crops once at the end
    g = ("d",)
    while len(g) < 1000:
        g = _per_letter_step(g)
    for rows, cols in ((1, 1), (1, 1000), (1000, 1), (7, 300), (300, 7),
                       (600, 700)):
        assert word2d.mu_prefix(rows, cols) == tuple(r[:cols] for r in g[:rows])


@pytest.mark.parametrize("rows, cols", [(4181, 5), (2000, 2000)])
def test_mu_prefix_matches_cropped_per_letter_substitution(rows, cols):
    # the reference crops after every per-letter step
    g = ("d",)
    while len(g) < rows or len(g[0]) < cols:
        g = tuple(r[:cols] for r in _per_letter_step(g)[:rows])
    got = word2d.mu_prefix(rows, cols)
    assert got == g
    # each distinct row is cropped once: equal rows are one object
    assert len({id(r) for r in got}) == len(set(got))


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


# ---------------------------------------------------------------- windows --

@st.composite
def _window_cases(draw, widths=6, heights=10):
    # equal-length rows over abcd, drawn from a few distinct ones so that
    # rows repeat; start lists unsorted and with repeats
    width = draw(st.integers(1, widths))
    distinct = draw(st.lists(st.text("abcd", min_size=width, max_size=width),
                             min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1,
                         max_size=heights))
    k = draw(st.integers(1, len(rows)))
    l = draw(st.integers(1, width))
    row_starts = draw(st.lists(st.integers(0, len(rows) - k), min_size=1,
                               max_size=8))
    col_starts = draw(st.lists(st.integers(0, width - l), min_size=1,
                               max_size=8))
    return rows, row_starts, col_starts, k, l


def _every_window(rows, row_starts, col_starts, k, l):
    every = {"".join(r[j:j + l] + "\n" for r in rows[i:i + k])
             for i in row_starts for j in col_starts}
    return len(every), sorted(every)


# the streams stream_windows can return, one for each way it cuts a text
_STREAMS = {c for c in word2d.stream_windows.__code__.co_consts
            if inspect.iscode(c) and c.co_flags & inspect.CO_GENERATOR}


def test_stream_windows_matches_brute_force():
    cuts = set()

    @settings(max_examples=300, deadline=None)
    @given(_window_cases())
    # a tall, thin window is one slice of its lane's text
    @example((list("abcdab"), range(4), [0], 3, 1))
    # a square window is the join of its held row windows
    @example((["abab", "baba", "abab"], [0, 1], [0, 1, 2], 2, 2))
    # a wide window with few distinct names is the join of its row slices
    @example((["aaaa", "aaaa"], [0, 1], [3, 1, 0, 2], 1, 1))
    def check(case):
        n, texts = word2d.stream_windows(*case)
        cuts.add(texts.gi_code)
        assert (n, list(texts)) == _every_window(*case)

    check()
    assert len(_STREAMS) == 3 and cuts == _STREAMS


def _rank_case(b, period, offsets, w):
    texts = [b[t + o:t + o + w] for t in range(0, len(b), period)
             for o in offsets]
    names = {text: chr(i) for i, text in enumerate(sorted(set(texts)))}
    return "".join(map(names.__getitem__, texts))


@st.composite
def _rank_cases(draw):
    # pieces of one length, the windows inside each piece
    period = draw(st.integers(1, 16))
    b = "".join(draw(st.lists(st.text("abc", min_size=period,
                                      max_size=period), min_size=1,
                              max_size=4)))
    w = draw(st.integers(1, period))
    offsets = draw(st.lists(st.integers(0, period - w), min_size=1,
                            max_size=6))
    return b, period, offsets, w


def test_rank_names_windows_in_sorted_order(monkeypatch):
    # keyed by blocks from width 4 on: h = 2 for widths 4-8, h = 3 for 9-15
    monkeypatch.setattr(word2d, "_WHOLE", 4)
    rank = word2d._rank
    blocks = set()

    def spy(b, period, offsets, w):
        if isinstance(offsets, range):  # naming the blocks of width w
            blocks.add(w)
        return rank(b, period, offsets, w)

    monkeypatch.setattr(word2d, "_rank", spy)

    @settings(max_examples=400, deadline=None)
    @given(_rank_cases())
    # widths 5 and 7 end with a block that overlaps the one before it
    @example(("abaababaabaa", 6, [1, 0, 1], 5))
    @example(("aabaabab" * 3, 8, [0, 1], 7))
    @example(("abcabcabc" * 2, 9, [0], 9))
    # pieces the blocks do not tile, windows that h divides (their last
    # block is named twice) and that it does not, starts at the last offset
    @example(("abaabab" "baababa" "abaabaa", 7, [3, 0, 2], 4))
    @example(("aabaababaab" "abaababaaba", 11, [4, 0, 4], 7))
    @example(("abaababaab" "baababaaba", 10, [1, 0], 9))
    @example(("abaababaababa" "aababaababaab", 13, [3, 2], 10))
    def check(case):
        assert word2d._rank(*case) == _rank_case(*case)

    check()
    assert {2, 3} <= blocks


@pytest.mark.parametrize("w", [128, 1100, 4400])
def test_wide_keys_are_block_names(w):
    # pieces that isqrt(w) does not divide, windows up to the last offset
    period = w + 5
    assert period % isqrt(w)
    b, offsets = word1d.fib_prefix("ab", 2 * period), range(period - w + 1)
    keys = list(word2d._keys(b, period, offsets, w))
    assert len(keys) == 2 * len(offsets)
    assert max(map(len, keys)) <= w // isqrt(w) + 1
    assert word2d._rank(b, period, offsets, w) == _rank_case(b, period,
                                                             offsets, w)


@settings(max_examples=400, deadline=None)
@given(_window_cases(widths=18, heights=18))
# one-row and one-column grids, windows of width and height 5, 7 and 9
@example((["abaababaabaab"], [0], [8, 0, 3, 8], 1, 5))
@example((list("abaababaabaabab"), [8, 0, 8, 3], [0], 7, 1))
@example((["abaabab", "babbaba"] * 5, [1, 0, 1], [0, 0], 9, 7))
# grids the blocks do not tile, windows that h divides and that it does
# not, starts at the last row and column
@example((["abaabab", "babbaba", "abaabab", "abaabab", "babbaba"], [1, 0],
          [2, 0], 4, 5))
@example((["abaababaa", "babbababb"] * 5 + ["abaababaa"], [6, 0, 3], [5, 1],
          5, 4))
@example((["abaababaababa", "babbababbabab", "aababaababaab"] * 3
          + ["abaababaababa"], [1, 0], [3, 0], 9, 10))
def test_stream_windows_by_blocks_matches_brute_force(case):
    # windows from width 4 on are keyed by their blocks
    whole = word2d._WHOLE
    word2d._WHOLE = 4
    try:
        n, texts = word2d.stream_windows(*case)
        assert (n, list(texts)) == _every_window(*case)
    finally:
        word2d._WHOLE = whole


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


def test_subblock_rejects_a_ragged_grid():
    with pytest.raises(ShapeMismatch, match="rows have unequal lengths"):
        word2d.subblock(("ab", "c"), (1, 1), (2, 2))


def test_classify_lines():
    assert word2d.classify_lines(F33) is None
    assert word2d.classify_lines(("d",)) is None


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
        word2d.classify_lines(())
    with pytest.raises(NotFibStructured):
        word2d.classify_lines(("da",))  # row mixes the two row alphabets
    with pytest.raises(NotFibStructured):
        word2d.classify_lines(("dc", "dd"))  # column 2 mixes c and d

