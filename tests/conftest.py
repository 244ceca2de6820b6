"""Fixtures shared by the test modules."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import reference

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="session")
def tracer():
    """The benchmark's tracer, perfbench/tracer.py, loaded as a module
    without installing anything and without writing a cache file in
    perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


@pytest.fixture(scope="module", autouse=True)
def _release_shared():
    """Keep each shared reference value for the module that made it."""
    yield
    reference.release()
