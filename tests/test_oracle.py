"""Unit tests for the brute-force oracle and the verification report."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fib2d import cli, conjugacy, dawg, frames, oracle, word2d
from fib2d.errors import BadBounds, ShapeMismatch

from reference import band_occurrences, texts
from tables import OCC_BLOCK, WORDS_1_1, WORDS_2_2, WORDS_3_3


def test_sufficient_bounds_values():
    assert oracle.sufficient_bounds(1, 1) == (5, 5)
    assert oracle.sufficient_bounds(2, 2) == (8, 8)
    assert oracle.sufficient_bounds(4, 4) == (13, 13)
    assert oracle.sufficient_bounds(8, 8) == (34, 34)
    with pytest.raises(ValueError):
        oracle.sufficient_bounds(0, 1)


def test_oracle_subwords_small_catalogs():
    assert oracle.oracle_subwords(1, 1, 2, 2) == texts(WORDS_1_1)
    assert oracle.oracle_subwords(2, 2, 30, 30) == texts(WORDS_2_2)
    assert oracle.oracle_subwords(3, 3, 50, 50) == texts(WORDS_3_3)


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


def _occurrences_reference(w, R, C):
    # letter-by-letter matching, as before the band harvest
    g = word2d.mu_prefix(R, C)
    rows, cols = word2d.dims(w)
    return tuple((i, j)
                 for i in range(R - rows + 1)
                 for j in range(C - cols + 1)
                 if all(g[i + r][j:j + cols] == w[r] for r in range(rows)))


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


def test_oracle_occurrences_rejects_an_empty_row():
    with pytest.raises(ShapeMismatch, match="empty rows"):
        oracle.oracle_occurrences(("",), 3, 3)


def test_oracle_occurrences_rejects_a_ragged_grid():
    with pytest.raises(ShapeMismatch, match="rows have unequal lengths"):
        oracle.oracle_occurrences(("a", ""), 3, 3)


def test_oracle_occurrences_match_band_scan():
    # the row scan finds what the column-band window cutter found
    for k in range(1, 5):
        for l in range(1, 5):
            for text in oracle.oracle_subwords(k, l, 40, 40):
                w = word2d.parse_text(text)
                assert oracle.oracle_occurrences(w, 40, 40) == \
                    band_occurrences(w, 40, 40), w
    assert oracle.oracle_occurrences(("cc", "aa"), 40, 40) == () == \
        band_occurrences(("cc", "aa"), 40, 40)


@settings(deadline=None)
@given(st.integers(1, 300), st.integers(1, 300), st.data())
def test_oracle_occurrences_match_band_scan_on_cuts(R, C, data):
    k, l = data.draw(st.integers(1, R)), data.draw(st.integers(1, C))
    i, j = data.draw(st.integers(0, R - k)), data.draw(st.integers(0, C - l))
    w = tuple(row[j:j + l] for row in word2d.mu_prefix(R, C)[i:i + k])
    assert oracle.oracle_occurrences(w, R, C) == band_occurrences(w, R, C)


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


# one edit of a sorted stream per way a method can disagree, and the size
# the edited stream reports relative to the (k+1)(l+1) expected
STRANGER = "?\n"


def _drop_last(texts):
    return iter(list(texts)[:-1])


def _add_one(texts):
    yield from texts
    yield STRANGER


def _swap_one(texts):
    texts = list(texts)
    texts[len(texts) // 2] = STRANGER
    return iter(texts)


EDITS = {"drop-last": (_drop_last, -1), "add-one": (_add_one, 1),
         "swap-one": (_swap_one, 0)}


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("method", ["conjugate", "dawg", "extend", "prefix"])
def test_verify_detects_a_method_that_disagrees(monkeypatch, method, edit):
    change, delta = EDITS[edit]
    stream = oracle.METHODS[method]
    monkeypatch.setitem(oracle.METHODS, method,
                        lambda k, l: change(stream(k, l)))
    report = oracle.verify(3, 2)
    sizes = dict.fromkeys(oracle.METHODS, 12)
    sizes[method] += delta
    assert report["sizes"] == sizes
    assert not report["methods_agree"] and report["oracle_stable"]
    assert not report["ok"]


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_verify_detects_an_unstable_oracle(monkeypatch, edit):
    # only the stream at double the bound is edited; the oracle method
    # reads the same function at the bound itself
    change, _ = EDITS[edit]
    stream = oracle.stream_subwords
    double = tuple(2 * n for n in oracle.sufficient_bounds(3, 2))

    def edited(k, l, R, C):
        texts = stream(k, l, R, C)
        return change(texts) if (R, C) == double else texts

    monkeypatch.setattr(oracle, "stream_subwords", edited)
    report = oracle.verify(3, 2)
    assert report["sizes"] == dict.fromkeys(oracle.METHODS, 12)
    assert report["methods_agree"] and not report["oracle_stable"]
    assert not report["ok"]


@pytest.mark.parametrize("edit", ["add-one", "drop-last"])
def test_verify_fails_on_a_fault_of_the_window_reader(monkeypatch, edit):
    # conjugate, prefix and the oracle at both bounds read their windows
    # through one reader, so a fault of it is shared by all four streams;
    # dawg and extend cut their texts through another, stream_fills, whose
    # fault they share in turn, and either pair still disagrees with the rest
    change, delta = EDITS[edit]
    windows, fills = word2d.stream_windows, word2d.stream_fills

    def faulty_windows(*args):
        n, texts = windows(*args)
        return n, change(texts)

    def faulty_fills(*args):
        return change(fills(*args))

    for name, faulty, modules, moved in [
            ("stream_windows", faulty_windows, (conjugacy, oracle),
             ("conjugate", "oracle", "prefix")),
            ("stream_fills", faulty_fills, (dawg, frames),
             ("dawg", "extend"))]:
        with monkeypatch.context() as patch:
            for module in modules:
                patch.setattr(module, name, faulty)
            report = oracle.verify(3, 3)
        sizes = dict.fromkeys(oracle.METHODS, 16)
        sizes.update(dict.fromkeys(moved, 16 + delta))
        assert report["sizes"] == sizes, name
        assert report["oracle_stable"], name
        assert not report["methods_agree"] and not report["ok"], name


def test_verify_command_fails_on_a_disagreement(monkeypatch, capsys):
    stream = oracle.METHODS["dawg"]
    monkeypatch.setitem(oracle.METHODS, "dawg",
                        lambda k, l: _drop_last(stream(k, l)))
    assert cli.main(["verify", "--k", "3", "--l", "2"]) == 1
    out = capsys.readouterr().out
    assert "  dawg       11\n" in out
    assert "methods agree: False\n" in out
    assert out.endswith("FAIL\n")
