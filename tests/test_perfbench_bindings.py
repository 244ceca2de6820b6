"""The fib2d names the benchmark's tracer binds must exist.

perfbench/tracer.py wraps fib2d functions by name when a run asks for
`--trace 1`, and perfbench/selftest.py, which pytest does not collect,
checks some import aliases.  A refactor that deletes or renames one of
those names would pass every other test and crash the traced run, so the
tracer is loaded here (the `tracer` fixture in conftest.py), read-only,
and its names resolved.
"""

from __future__ import annotations

import fib2d
from fib2d import cli


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
