"""Every enumeration gives the sorted texts of its factors.

A factor's text is its rows, each ending in a newline, as word2d.to_text
prints them.  The parent grid, the 2D Fibonacci word, is read as the
coding of two rotations (tests/rotation.py), which shares nothing with
any method; each method's stream is checked against it text by text, as
is each tuple form at the smallest sizes, and tall shapes are checked to
build no row tuples at all.
"""

from __future__ import annotations

import importlib
import pkgutil
from itertools import zip_longest

import pytest

import fib2d
from fib2d import conjugacy, dawg, frames, oracle

import rotation

SIZES = [(k, l) for k in range(1, 13) for l in range(1, 13)]
SIZES += [(40, 40), (30, 70), (70, 30), (100, 100),
          (1100, 1), (1, 1100), (1100, 2), (2, 1100),
          (300, 1), (1, 300), (300, 2), (2, 300), (150, 1), (1, 150)]


@pytest.mark.parametrize("method", sorted(oracle.METHODS))
def test_texts_are_the_texts_of_the_parent_grids(method):
    # each method streams its texts, so neither side holds a whole output
    enum = oracle.METHODS[method]
    for k, l in SIZES:
        if method == "prefix" and min(k, l) < 2:
            continue
        texts = enum(k, l)
        assert iter(texts) is texts, (method, k, l)
        for n, (got, want) in enumerate(zip_longest(texts,
                                                    rotation.texts(k, l))):
            assert got == want, (method, k, l, n)


@pytest.mark.parametrize("enum", [
    dawg.enumerate_dawg, frames.enumerate_extension,
    conjugacy.enumerate_conjugation, conjugacy.enumerate_prefix_conjugates],
    ids=lambda enum: enum.__name__)
def test_tuple_forms_are_the_texts_of_the_parent_grids(enum):
    # prefix conjugates exist only from size (2,2) on
    first = 2 if enum is conjugacy.enumerate_prefix_conjugates else 1
    for k in range(first, 4):
        assert enum(k, k) == tuple(rotation.texts(k, k)), k


@pytest.mark.parametrize("method, stream", [
    ("dawg", dawg.stream_dawg), ("extend", frames.stream_extension)])
def test_frame_streams_are_the_texts_of_the_parent_grids(method, stream):
    # dawg and extend fill their blocks in sorted order and never sort, so
    # the first text of a large size comes without the rest being built
    assert oracle.METHODS[method] is stream
    for k, l in [(1100, 1100), (1, 1100), (1100, 1)]:
        assert next(stream(k, l)) == next(iter(rotation.texts(k, l))), (
            method, k, l)


def test_tall_enumeration_builds_no_row_tuples(monkeypatch):
    # every binding of the grid builders in the package raises, so a tall
    # factor is never held as a tuple of k rows
    def refuse(*args):
        raise AssertionError("a grid was built")

    for info in pkgutil.iter_modules(fib2d.__path__):
        module = importlib.import_module(f"fib2d.{info.name}")
        for name in ("fill", "to_text"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    # prefix conjugates exist only from size (2,2) on
    cases = [(method, l) for method in sorted(oracle.METHODS) for l in (1, 2)
             if method != "prefix" or l == 2]
    for method, l in cases:
        words = tuple(oracle.METHODS[method](300, l))
        assert len(words) == 301 * (l + 1), (method, l)
        assert all(w.count("\n") == 300 for w in words), (method, l)
