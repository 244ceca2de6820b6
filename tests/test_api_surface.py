"""Every name the package exports has a caller outside the tests.

A name fib2d/__init__.py exports must be used by the library's own code
(other than its definition), shown in the README's library tour, checked
by an acceptance criterion, or bound by the benchmark's tracer.  A name
only unit tests call belongs in tests/reference.py, not in the API.  The
package's source stays under a fixed line bound, so code that is added is
paid for by code that is deleted, and every name a module imports is read
in it.  Every top-level name of tests/reference.py is used by a test
module, or read by another reference that is, so no reference outlives
the tests that read it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fib2d"


def _used_names(path: Path) -> set[str]:
    """Names read and attributes taken in the module at path, each outside
    the top-level definition of that name."""
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                 or isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    return used


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_export_has_a_caller_outside_the_tests(tracer):
    tour = re.search(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                     re.MULTILINE | re.DOTALL).group(1)
    used = set(re.findall(r"\w+", tour))
    used |= {qualname.split(".")[1] for qualname in tracer.TRACED}
    used |= _used_names(ROOT / "tests" / "test_acceptance.py")
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(path)
    assert sorted(_exports() - used) == []


# lines of src/fib2d/*.py together, as `wc -l` counts them
LINE_BOUND = 1800


def test_package_stays_under_the_line_bound():
    lines = sum(path.read_bytes().count(b"\n")
                for path in PACKAGE.glob("*.py"))
    assert lines <= LINE_BOUND


# the imports no module reads: the re-import perfbench/selftest.py checks
# the tracer wraps.  fib2d/__init__.py's imports are the exports above
UNREAD_IMPORTS = [("frames.py", "subblock")]


def _unread_imports(path: Path) -> set[str]:
    """Names the module at path imports, but for the future import
    `annotations`, that no expression in it reads."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read - {"annotations"}


def test_every_import_is_read():
    unread = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for name in sorted(_unread_imports(path))]
    assert unread == UNREAD_IMPORTS


def _reads(stmt) -> set[str]:
    """The names a statement reads."""
    return {node.id for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _binds(stmt) -> set[str]:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return {alias.asname or alias.name.split(".")[0]
                for alias in stmt.names} - {"annotations"}
    if isinstance(stmt, ast.Assign):
        return {node.id for target in stmt.targets
                for node in ast.walk(target) if isinstance(node, ast.Name)}
    return set()


def test_every_reference_is_used():
    tests = ROOT / "tests"
    reads, imported = {}, set()
    for stmt in ast.parse((tests / "reference.py").read_text()).body:
        for name in _binds(stmt):
            reads[name] = _reads(stmt)
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            imported |= _binds(stmt)
    # an import is used only by the references that read it
    live = (set(reads) - imported) & set().union(
        *(_used_names(path) for path in tests.glob("*.py")
          if path.name != "reference.py"))
    todo = list(live)
    while todo:
        found = reads[todo.pop()] & set(reads) - live
        live |= found
        todo += found
    assert sorted(set(reads) - live) == []
