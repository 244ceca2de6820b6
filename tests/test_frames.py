"""Unit tests for frame decomposition and enumeration by extension."""

from __future__ import annotations

import pytest

from fib2d import frames
from fib2d.errors import (IncompleteInput, InconsistentJoint, InternalError,
                          NotAFactor)
from fib2d.word1d import _extend_block, factors1d, right_extensions
from fib2d.word2d import (COL_ALPHABETS, ROW_ALPHABETS, col_alphabet_of, fill,
                          parse_text, row_alphabet_of, subblock)

from reference import classify_frame, shared, texts
from tables import (EXTENSIONS_2_2, FRAME_TYPES_1_1, FRAME_TYPES_2_2,
                    WORDS_1_1, WORDS_2_2, WORDS_3_3)

TYPE_EXTENSION_COUNT = {"I": 1, "II": 2, "III": 2, "IV": 4}


# ------------------------------------------------------------------ frame --

def test_frame_tl_values():
    assert frames.frame_tl(("dc", "ba")) == frames.FrameTL("dc", "db", "d")
    assert frames.frame_tl(("ab", "cd")) == frames.FrameTL("ab", "ac", "a")
    assert frames.frame_tl(("d",)) == frames.FrameTL("d", "d", "d")


def test_fill_round_trip():
    for w in WORDS_2_2 + WORDS_3_3:
        assert frames.fill_from_frame(frames.frame_tl(w)) == w


def test_fill_from_frame_values():
    f = frames.FrameTL("dcd", "dbd", "d")
    assert frames.fill_from_frame(f) == ("dcd", "bab", "dcd")


def test_fill_from_frame_rejects_bad_frames():
    with pytest.raises(ValueError):
        frames.fill_from_frame(frames.FrameTL("", "d", "d"))
    with pytest.raises(InconsistentJoint):
        frames.fill_from_frame(frames.FrameTL("dc", "ba", "d"))
    with pytest.raises(NotAFactor):
        frames.fill_from_frame(frames.FrameTL("ddd", "d", "d"))
    with pytest.raises(NotAFactor):
        frames.fill_from_frame(frames.FrameTL("d", "ddd", "d"))


def test_classify_frame_values():
    for words, types in ((WORDS_1_1, FRAME_TYPES_1_1),
                         (WORDS_2_2, FRAME_TYPES_2_2)):
        for w in words:
            assert classify_frame(frames.frame_tl(w)) == types[w]


def test_type_distribution():
    # size (k,l) splits as kl type I, l type II, k type III, one type IV
    for k, l in ((2, 2), (3, 3), (2, 4), (5, 3)):
        words = map(parse_text, frames.enumerate_extension(k, l))
        kinds = [classify_frame(frames.frame_tl(w)) for w in words]
        assert kinds.count("I") == k * l
        assert kinds.count("II") == l
        assert kinds.count("III") == k
        assert kinds.count("IV") == 1


# -------------------------------------------------------------- extension --

def frames_of(words):
    return [frames.frame_tl(w) for w in words]


def grids(fs):
    return tuple(sorted(fill(f.frame_t, f.frame_l) for f in fs))


def test_extensions_of_matches_catalog():
    for w in WORDS_2_2:
        assert grids(frames.extensions_of(frames.frame_tl(w))) == EXTENSIONS_2_2[w]


def test_extension_count_per_type():
    for k, l in ((1, 1), (2, 2), (3, 2)):
        for w in map(parse_text, frames.enumerate_extension(k, l)):
            f = frames.frame_tl(w)
            kind = classify_frame(f)
            assert len(frames.extensions_of(f)) == TYPE_EXTENSION_COUNT[kind]


def test_extensions_contain_their_source():
    for w in WORDS_2_2:
        for bigger in grids(frames.extensions_of(frames.frame_tl(w))):
            assert subblock(bigger, (1, 1), (2, 2)) == w


def test_extend_diagonal():
    assert grids(frames.extend_diagonal(frames_of(WORDS_2_2))) == WORDS_3_3
    assert grids(frames.extend_diagonal(frames_of(WORDS_1_1))) == WORDS_2_2


def test_extend_diagonal_rejects_incomplete_sets():
    with pytest.raises(IncompleteInput):
        frames.extend_diagonal(())
    with pytest.raises(IncompleteInput):
        frames.extend_diagonal(frames_of(WORDS_2_2[:-1]))  # one frame missing
    with pytest.raises(IncompleteInput):
        frames.extend_diagonal(frames_of(WORDS_2_2 + WORDS_1_1))  # mixed sizes
    with pytest.raises(IncompleteInput):
        # a duplicate in place of the missing frame
        frames.extend_diagonal(frames_of(WORDS_2_2[:-1] + WORDS_2_2[:1]))


def test_extend_diagonal_rejects_bad_frames():
    # a complete-looking class, nine distinct (2,2) frames, with one bad frame
    good = frames_of(WORDS_2_2)[:-1]
    bad_frames = [
        (frames.FrameTL("dc", "ba", "d"), InconsistentJoint),  # joint d vs b
        (frames.FrameTL("dc", "db", "b"), InconsistentJoint),  # joint letter
        (frames.FrameTL("cc", "ca", "c"), NotAFactor),  # row word
        (frames.FrameTL("ba", "bb", "b"), NotAFactor),  # column word
    ]
    for bad, error in bad_frames:
        with pytest.raises(error):
            frames.extend_diagonal(good + [bad])
        with pytest.raises(error):
            frames.extend_diagonal([bad] + good)


def test_extend_diagonal_checks_the_count_law(monkeypatch):
    # every word grown by its dominant letter twice: the nine (2,2) frames
    # grow into nine frames, not the sixteen of size (3,3)
    monkeypatch.setattr(frames, "_extend_block", lambda words, a: [
        u + a[0] for u in words for _ in "xx"])
    with pytest.raises(InternalError) as err:
        frames.extend_diagonal(frames_of(WORDS_2_2))
    assert str(err.value) == "size (3,3) has 16 subwords, extension gave 9"


def _extend_reference(fs):
    # the per-frame step: check and grow both words of each frame in turn
    out = {}
    for frame_t, frame_l, s in fs:
        if not frame_t or not frame_l:
            raise ValueError("frame words must be non-empty")
        if not frame_t[0] == frame_l[0] == s:
            raise InconsistentJoint(s)
        for x in right_extensions(frame_t, row_alphabet_of(s)):
            for y in right_extensions(frame_l, col_alphabet_of(s)):
                out[frames.FrameTL(frame_t + x, frame_l + y, s)] = None
    return tuple(out)


@shared
def _chain(k, l):
    """The frames of every size from the one-line class (k-m+1, l-m+1),
    m = min(k, l), up to (k,l): that class's frames in sorted order, made
    from factors1d, then each extend_diagonal output in the order it
    makes them."""
    m = min(k, l)
    if k <= l:
        fs = [frames.FrameTL(u, u[0], u[0]) for alph in ROW_ALPHABETS
              for u in factors1d(l - m + 1, alph)]
    else:
        fs = [frames.FrameTL(u[0], u, u[0]) for alph in COL_ALPHABETS
              for u in factors1d(k - m + 1, alph)]
    chain = [tuple(sorted(fs))]
    for _ in range(m - 1):
        chain.append(frames.extend_diagonal(chain[-1]))
    return tuple(chain)


# the sizes whose chains test_extend_diagonal_matches_per_frame_step
# checks: from each one-line class (1,d) or (d,1) until a side is 12
CHAIN_ENDS = [(k, 12) for k in range(1, 13)] + [(12, l) for l in range(1, 12)]
CHAIN_ENDS += [(40, 40), (30, 70)]


def test_extend_diagonal_matches_per_frame_step():
    for k, l in CHAIN_ENDS:
        chain = _chain(k, l)
        # the chain starts from the one-line class that extension gives
        m = min(k, l)
        assert chain[0] == tuple(frames_of(map(parse_text, (
            frames.enumerate_extension(k - m + 1, l - m + 1))))), (k, l)
        for fs, grown in zip(chain, chain[1:]):
            assert grown == _extend_reference(fs), (k, l)


def test_extension_grows_each_distinct_word_once(monkeypatch):
    # the (a+1)(b+1) frames of a class are the swaps and pairs of its b+1
    # top words over dc and a+1 side words over db; the per-frame step
    # looks up 44 278 at (40,40) and 56 028 at (30,70).  Each diagonal
    # step grows the tops and the sides, one block step each: 2 calls a step
    blocks = []

    def counted(words, alphabet):
        blocks.append(len(words))
        return _extend_block(words, alphabet)

    monkeypatch.setattr(frames, "_extend_block", counted)
    for k, l, most in ((40, 40, 1638), (30, 70, 2088)):
        m = min(k, l)
        sizes = [(k - m + i, l - m + i) for i in range(1, m)]
        assert sum(a + b + 2 for a, b in sizes) == most
        blocks.clear()
        frames.enumerate_extension(k, l)
        assert len(blocks) == 2 * (m - 1)
        assert 0 < sum(blocks) <= most


# ------------------------------------------------------------- enumeration --

def _per_frame_class(k, l):
    """The (k,l) class reached frame by frame: the one-line frames made
    from factors1d, stepped with extend_diagonal, filled and sorted.  A
    size with both sides up to 12 is read off the chain of its diagonal
    that ends where a side is 12, one of CHAIN_ENDS."""
    d = max(0, 12 - max(k, l))
    return grids(_chain(k + d, l + d)[min(k, l) - 1])


def test_enumerate_extension_matches_per_frame_chain():
    sizes = [(k, l) for k in range(1, 13) for l in range(1, 13)]
    for k, l in sizes + [(40, 40), (30, 70), (70, 30), (2, 300), (300, 2)]:
        assert (frames.enumerate_extension(k, l)
                == texts(_per_frame_class(k, l))), (k, l)


def test_enumerate_extension_grows_blocks_not_frames(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_extension went frame by frame")

    for name in ("extend_diagonal", "extensions_of", "FrameTL"):
        monkeypatch.setattr(frames, name, refuse)
    assert frames.enumerate_extension(3, 3) == texts(WORDS_3_3)
    assert len(frames.enumerate_extension(5, 9)) == 6 * 10


def test_enumerate_extension_rejects_bad_input():
    with pytest.raises(ValueError):
        frames.enumerate_extension(0, 2)
