"""The fib2d names the benchmark's tracer binds must exist.

perfbench/tracer.py wraps fib2d functions by name when a run asks for
`--trace 1`, and perfbench/selftest.py, which pytest does not collect,
checks some import aliases.  A refactor that deletes or renames one of
those names would pass every other test and crash the traced run, so the
tracer is loaded here, read-only, and its names resolved without
installing anything.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import fib2d
from fib2d import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def test_traced_names_resolve(tracer):
    for qualname in tracer.TRACED:
        assert callable(tracer._resolve(qualname)), qualname


def test_traced_caches_report_their_size(tracer):
    for qualname in tracer.CACHES:
        assert tracer._resolve(qualname).cache_info().currsize >= 0, qualname


def test_selftest_bindings_exist():
    assert sorted(cli._ENUM_METHODS) == ["conjugate", "dawg", "extend",
                                         "oracle", "prefix"]
    for module, name in (("dawg", "fib_prefix"), ("frames", "subblock"),
                         ("locator", "frame_tl"), ("conjugacy", "fib_array")):
        assert hasattr(getattr(fib2d, module), name), f"{module}.{name}"
