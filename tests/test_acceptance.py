"""Acceptance gate: one test per shipped criterion, at the stated budget.

Each criterion gets exactly one test function, so a verbose run shows one
pass/fail line per criterion.  Budgets are wall-clock upper bounds measured
inside the test; the bounded ranges are module constants so criterion 10
can state precisely which finite evidence stands in for the infinite
claims.  Evidence added after the criteria were fixed has its own test,
which criterion 10 names.
"""

from __future__ import annotations

import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from fib2d import cli, conjugacy, dawg, frames, locator, oracle, word1d, word2d

from reference import classify_frame
from tables import (EXTENSIONS_2_2, FRAME_TYPES_2_2, OCC_ABAB_BELOW_33,
                    OCC_BLOCK, OCC_BLOCK_AXIS, Q_3_3, Q_4_AB,
                    ROTATION_PREFIXES_3_3, WORDS_2_2, WORDS_3_3)

COUNT_LAW_MAX = 10      # criterion 4: all methods agree up to size (10,10)
ORACLE_EQUIV_MAX = 8    # criterion 5: oracle equality up to size (8,8)
PROPERTY_SIZE_MAX = 8   # criterion 9: randomized structural laws
CLASS_LAW_MAX = 6       # criterion 9: conjugacy-class sizes up to (6,6)
ZECK_MAX = 10_000       # criterion 9: Zeckendorf validity range
# verify passes on the thin shapes (k,1), (1,l), (k,2), (2,l) at this length
SKINNY_VERIFY_LEN = 1100

EXTENSION_COUNT = {"I": 1, "II": 2, "III": 2, "IV": 4}


def test_criterion_01_size_2_2_catalog_under_every_method(capsys):
    # the nine size-(2,2) factors, byte-identical across all five methods
    start = time.perf_counter()
    expected = "\n".join(word2d.to_text(w) for w in WORDS_2_2)
    for method in ("dawg", "extend", "conjugate", "prefix", "oracle"):
        code = cli.main(["enum", "--k", "2", "--l", "2", "--method", method])
        assert code == 0
        assert capsys.readouterr().out == expected
    assert time.perf_counter() - start < 1.0


def test_criterion_02_extension_step_with_multiplicities():
    # one level of diagonal extension: 9 factors grow into exactly 16,
    # each source contributing 1/2/2/4 new blocks by frame type; frames
    # grow, and each grown frame fills to a block whose (2,2) corner is
    # its source
    start = time.perf_counter()
    assert len(WORDS_2_2) == 9
    produced, total = set(), 0
    for w in WORDS_2_2:
        f = frames.frame_tl(w)
        exts = tuple(sorted(word2d.fill(g.frame_t, g.frame_l)
                            for g in frames.extensions_of(f)))
        kind = classify_frame(f)
        assert exts == EXTENSIONS_2_2[w]
        assert len(exts) == EXTENSION_COUNT[kind] == EXTENSION_COUNT[FRAME_TYPES_2_2[w]]
        assert all(word2d.subblock(g, (1, 1), (2, 2)) == w for g in exts)
        produced.update(exts)
        total += len(exts)
    assert total == len(produced) == 16  # no two sources share a block
    step = frames.extend_diagonal([frames.frame_tl(w) for w in WORDS_2_2])
    assert tuple(sorted(word2d.fill(f.frame_t, f.frame_l)
                        for f in step)) == WORDS_3_3
    assert time.perf_counter() - start < 1.0


def test_criterion_03_rotation_catalog_of_the_3_3_conjugate():
    # inverse rotations of the distinguished (3,3) conjugate and their
    # (2,2) prefixes, row for row
    assert conjugacy.special_conjugate2d(3, 3) == Q_3_3
    for (i, j), (conj, prefix) in ROTATION_PREFIXES_3_3.items():
        w = conjugacy.rotate2d(Q_3_3, -i, -j)
        assert w == conj
        assert word2d.subblock(w, (1, 1), (2, 2)) == prefix


def test_criterion_04_count_law_up_to_10():
    # every method yields exactly (k+1)(l+1) factors, and the same ones
    start = time.perf_counter()
    for k in range(1, COUNT_LAW_MAX + 1):
        for l in range(1, COUNT_LAW_MAX + 1):
            sets = [dawg.enumerate_dawg(k, l),
                    frames.enumerate_extension(k, l),
                    conjugacy.enumerate_conjugation(k, l)]
            if k >= 2 and l >= 2:
                sets.append(conjugacy.enumerate_prefix_conjugates(k, l))
            for s in sets:
                assert len(s) == (k + 1) * (l + 1)
                assert s == sets[0]
    assert time.perf_counter() - start < 60.0


def test_criterion_05_oracle_equivalence_up_to_8():
    # analytic enumerations equal brute-force window harvesting, and the
    # harvest is already complete at the sufficiency bound (double-bound check)
    for k in range(1, ORACLE_EQUIV_MAX + 1):
        for l in range(1, ORACLE_EQUIV_MAX + 1):
            report = oracle.verify(k, l)
            assert report["ok"], report
            assert report["oracle_stable"]


def test_criterion_06_occurrences_of_abab():
    assert word1d.occ1d("abab", "ab", 33) == OCC_ABAB_BELOW_33


def test_criterion_07_occurrences_of_a_3_3_block():
    hits = locator.occ2d(OCC_BLOCK, 21, 21)
    assert hits == tuple((x, y) for x in OCC_BLOCK_AXIS for y in OCC_BLOCK_AXIS)
    assert locator.first_occ2d(OCC_BLOCK) == (2, 2)
    assert hits == oracle.oracle_occurrences(OCC_BLOCK, 24, 24)


def test_criterion_08_distinguished_1d_conjugate():
    q = word1d.special_conjugate1d(4, "ab")
    assert q == Q_4_AB
    prefixes = {word1d.rotate1d(q, -p)[:4] for p in range(5)}
    assert prefixes == {"baba", "abab", "aaba", "baab", "abaa"}
    assert prefixes == set(word1d.factors1d(4, "ab"))


# criterion 9: randomized structural laws, bounded sizes

@st.composite
def _factor_grids(draw):
    k = draw(st.integers(1, PROPERTY_SIZE_MAX))
    l = draw(st.integers(1, PROPERTY_SIZE_MAX))
    words = dawg.enumerate_dawg(k, l)
    return word2d.parse_text(words[draw(st.integers(0, len(words) - 1))])


@settings(max_examples=200, deadline=None)
@given(_factor_grids())
def _frame_round_trip(w):
    assert frames.fill_from_frame(frames.frame_tl(w)) == w


@settings(max_examples=200, deadline=None)
@given(_factor_grids(), st.integers(-20, 20), st.integers(-20, 20))
def _rotate_round_trip(w, i, j):
    assert conjugacy.rotate2d(conjugacy.rotate2d(w, i, j), -i, -j) == w


@settings(max_examples=300, deadline=None)
@given(st.integers(0, ZECK_MAX), st.sampled_from(["F11", "F12"]))
def _zeckendorf_validity(x, numbering):
    idx = word1d.zeck_repr(x, numbering)
    assert sum(word1d.fib(i, numbering) for i in idx) == x
    assert all(j - i >= 2 for i, j in zip(idx, idx[1:]))


def test_criterion_09_structural_laws():
    start = time.perf_counter()
    _frame_round_trip()
    _rotate_round_trip()
    _zeckendorf_validity()
    # every enumerated factor is line-structured
    for k in range(1, PROPERTY_SIZE_MAX + 1):
        for l in range(1, PROPERTY_SIZE_MAX + 1):
            for w in dawg.enumerate_dawg(k, l):
                word2d.classify_lines(word2d.parse_text(w))
    # conjugacy classes of the finite grids have exactly F(m)*F(n) members
    for m in range(2, CLASS_LAW_MAX + 1):
        for n in range(2, CLASS_LAW_MAX + 1):
            size = len(conjugacy.conjugacy_class(word2d.fib_array(m, n)))
            assert size == word1d.fib(m, "F11") * word1d.fib(n, "F11")
    assert time.perf_counter() - start < 120.0


def test_verify_passes_on_skinny_shapes():
    # every method, the count law and the oracle's double-bound check on
    # thin shapes, both ways round
    start = time.perf_counter()
    n = SKINNY_VERIFY_LEN
    for k, l in ((n, 1), (1, n), (n, 2), (2, n)):
        report = oracle.verify(k, l)
        assert report["ok"], report
    assert time.perf_counter() - start < 30.0


def test_criterion_10_bounded_evidence_substitutes_for_infinite_claims():
    """The library's subject matter is a pair of infinite words, and claims
    about them (every size (k,l) has exactly (k+1)(l+1) factors, occurrence
    sets are Zeckendorf-shifted streams, ...) cannot be tested directly.
    This suite substitutes bounded evidence and says so explicitly: the
    count law is checked up to size (10,10) (criterion 4), analytic sets
    equal brute-force window scans on finite prefixes up to size (8,8) with
    a double-bound stability check (criterion 5), occurrence arithmetic is
    compared against naive scanning below finite bounds (criteria 6 and 7,
    plus the window-scan tests in the unit modules), the randomized
    structural laws of criterion 9 run on factors up to size (8,8), and
    verify (every method, the count law and the double-bound oracle check)
    passes on the thin shapes (1100,1), (1,1100), (1100,2) and (2,1100)
    (test_verify_passes_on_skinny_shapes).  Nothing beyond these bounds is
    claimed by any test in this repository."""
    assert COUNT_LAW_MAX == 10
    assert ORACLE_EQUIV_MAX == 8
    assert PROPERTY_SIZE_MAX == 8
    assert CLASS_LAW_MAX == 6
    assert ZECK_MAX == 10_000
    assert SKINNY_VERIFY_LEN == 1100
    # keep the statement tied to the shipped code: one live instance of each
    assert len(dawg.enumerate_dawg(10, 10)) == 11 * 11
    report = oracle.verify(8, 8)
    assert report["ok"] and report["oracle_stable"]
    assert word1d.occ1d("a", "ab", 10) == tuple(
        i for i, ch in enumerate(word1d.fib_prefix("ab", 10)) if ch == "a")
