"""Unit tests for frame decomposition and enumeration by extension."""

from __future__ import annotations

import pytest

from fib2d import frames
from fib2d.errors import IncompleteInput, InconsistentJoint, NotAFactor
from fib2d.word2d import fill, subblock

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
            assert frames.classify_frame(frames.frame_tl(w)) == types[w]


def test_type_distribution():
    # size (k,l) splits as kl type I, l type II, k type III, one type IV
    for k, l in ((2, 2), (3, 3), (2, 4), (5, 3)):
        words = frames.enumerate_extension(k, l)
        kinds = [frames.classify_frame(frames.frame_tl(w)) for w in words]
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
        for w in frames.enumerate_extension(k, l):
            f = frames.frame_tl(w)
            kind = frames.classify_frame(f)
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


# ------------------------------------------------------------- enumeration --

def test_enumerate_extension_small_catalogs():
    assert frames.enumerate_extension(1, 1) == WORDS_1_1
    assert frames.enumerate_extension(2, 2) == WORDS_2_2
    assert frames.enumerate_extension(3, 3) == WORDS_3_3


def test_enumerate_extension_counts():
    for k in range(1, 7):
        for l in range(1, 7):
            assert len(frames.enumerate_extension(k, l)) == (k + 1) * (l + 1)


def test_enumerate_extension_rejects_bad_input():
    with pytest.raises(ValueError):
        frames.enumerate_extension(0, 2)
