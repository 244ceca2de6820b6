"""Static guards on the package's memory: bounded caches, no recursion.

A cache without a size limit grows for the life of the process, and a
function that calls itself needs stack depth that grows with its input;
both turn a large request into a crash instead of a documented exit code.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import fib2d

MODULES = [importlib.import_module(f"fib2d.{info.name}")
           for info in pkgutil.iter_modules(fib2d.__path__)]


def test_every_cache_has_a_size_limit():
    caches = {f"{module.__name__}.{name}": value
              for module in MODULES for name, value in vars(module).items()
              if hasattr(value, "cache_info")}
    assert {"fib2d.word1d.fib", "fib2d.word1d.fib_word",
            "fib2d.word1d.zeck_repr"} <= set(caches)
    unbounded = [name for name, cache in caches.items()
                 if cache.cache_info().maxsize is None]
    assert unbounded == []


def _calls_itself(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            callee = node.func
            name = (callee.id if isinstance(callee, ast.Name)
                    else callee.attr if isinstance(callee, ast.Attribute)
                    else None)
            if name == fn.name:
                return True
    return False


def test_no_function_calls_itself():
    recursive = []
    for path in sorted(Path(fib2d.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        recursive += [f"{path.name}:{node.lineno} {node.name}"
                      for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and _calls_itself(node)]
    assert recursive == []
