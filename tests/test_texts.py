"""Every enumeration gives the sorted texts of its factors.

A factor's text is its rows, each ending in a newline, as word2d.to_text
prints them.  Each method is checked against the grid-returning form it
replaced (tests/reference.py), and tall shapes are checked to build no
row tuples at all.
"""

from __future__ import annotations

import hashlib
import importlib
import pkgutil

import pytest

import fib2d
from fib2d import dawg, frames, oracle

from reference import GRID_METHODS, shared, texts

SIZES = [(k, l) for k in range(1, 13) for l in range(1, 13)]
SIZES += [(40, 40), (30, 70), (70, 30),
          (1100, 1), (1, 1100), (1100, 2), (2, 1100)]


def _digest(texts_) -> str:
    """The SHA-256 of the texts, each ended by a NUL, read as they come."""
    digest = hashlib.sha256()
    for text in texts_:
        digest.update(text.encode())
        digest.update(b"\0")
    return digest.hexdigest()


@shared
def _parent_digest(method, k, l) -> str:
    """The digest of the texts of GRID_METHODS[method](k, l).  Both tests
    below check dawg and extend against their parents at SIZES, where the
    texts take ~39 MB a method, so they share 64 characters a size."""
    return _digest(texts(GRID_METHODS[method](k, l)))


@pytest.mark.parametrize("method", sorted(oracle.METHODS))
def test_texts_are_the_texts_of_the_parent_grids(method):
    enum = oracle.METHODS[method]
    for k, l in SIZES:
        if method == "prefix" and min(k, l) < 2:
            continue
        assert _digest(enum(k, l)) == _parent_digest(method, k, l), (
            method, k, l)


@pytest.mark.parametrize("method, stream", [
    ("dawg", dawg.stream_dawg), ("extend", frames.stream_extension)])
def test_frame_streams_are_the_texts_of_the_parent_grids(method, stream):
    # dawg and extend fill their blocks in sorted order and never sort
    assert oracle.METHODS[method] is stream
    for k, l in SIZES:
        texts_ = stream(k, l)
        assert iter(texts_) is texts_, (method, k, l)
        assert _digest(texts_) == _parent_digest(method, k, l), (
            method, k, l)
    # only this test reads (100,100), so its parent texts are not shared
    texts_ = stream(100, 100)
    assert iter(texts_) is texts_, method
    assert tuple(texts_) == texts(GRID_METHODS[method](100, 100)), method


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
