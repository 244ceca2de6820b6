"""The enumeration methods stay independent: a static call graph.

verify() checks the methods against each other and against the oracle, so
its agreement means something only while no method reads through another
method's construction.  The methods fall into two reader families by
design: dawg and extend cut their texts with word2d.stream_fills, and the
two conjugation methods and the oracle read theirs with
word2d.stream_windows, so a fault in one reader moves one family only.
The graph is read from the package's source: a name refers to what the
module's own definitions and its imports from the package bind it to.
The rotation reference every method is checked against,
tests/rotation.py, stays off the package and the other references.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import fib2d
from fib2d import oracle

_MODULES = sorted(p.stem for p in Path(fib2d.__file__).parent.glob("*.py"))
METHOD_MODULES = {"conjugacy", "dawg", "frames", "oracle"}


def _refs(node, scope: dict, modules: dict) -> set[str]:
    """The module.names that node's code refers to: its names bound by
    scope, m.name for each module m that modules binds, and what the code
    imports from the package itself; a module named alone stands for all
    of it.  Arguments and names the code assigns anywhere in it are its
    own, not references."""
    nodes = list(ast.walk(node))
    local = {n.arg for n in nodes if isinstance(n, ast.arg)} | {
        n.id for n in nodes
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    owned = {id(n.value): f"{modules.get(n.value.id)}.{n.attr}"
             for n in nodes if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id in modules}
    imported = {f"{n.module}.{alias.name}" if n.module else alias.name
                for n in nodes if isinstance(n, ast.ImportFrom) and n.level
                for alias in n.names}
    return imported | {owned.get(id(n)) or scope.get(n.id) or modules.get(n.id)
                       for n in nodes if isinstance(n, ast.Name)
                       and n.id not in local} - {None}


def _graph() -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """(graph, methods): module.name -> the module.names it refers to, for
    every top-level definition, assignment and import of the package, with
    each module -> all its names; and each name of oracle.METHODS -> the
    names its entry refers to."""
    graph, methods = {}, {}
    for mod in _MODULES:
        path = Path(fib2d.__file__).parent / f"{mod}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope, modules, bodies = {}, {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if node.module is None:
                        modules[name] = alias.name
                    else:
                        scope[name] = f"{node.module}.{alias.name}"
                        graph[f"{mod}.{name}"] = {scope[name]}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target]):
                    if isinstance(target, ast.Name):
                        bodies[target.id] = node.value
        scope.update({name: f"{mod}.{name}" for name in bodies})
        for name, body in bodies.items():
            graph[f"{mod}.{name}"] = _refs(body, scope, modules)
            if mod == "oracle" and name == "METHODS":
                methods = {key.value: _refs(value, scope, modules)
                           for key, value in zip(body.keys, body.values)}
        graph[mod] = {f"{mod}.{name}" for name in scope}
    return graph, methods


GRAPH, METHODS = _graph()


def reach(refs) -> set[str]:
    """Every name reached from refs, refs included."""
    seen, todo = set(), list(refs)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += GRAPH.get(name, ())
    return seen


def _inside(names, forbidden) -> set[str]:
    """The names that are a forbidden name or lie in a forbidden module."""
    return {name for name in names
            if name in forbidden or name.split(".")[0] in forbidden}


FILLS = {"word2d.fill", "word2d.fill_text", "word2d.stream_fills"}
READERS = {"word2d.stream_fills", "word2d.stream_windows"}


def test_the_graph_holds_every_method():
    assert sorted(METHODS) == sorted(oracle.METHODS)
    # a name the graph does not know would end every walk early
    for name in ("dawg.stream_dawg", "frames.stream_extension",
                 "conjugacy.stream_conjugation", "oracle.stream_subwords",
                 "conjugacy.stream_prefix_conjugates", "word2d.stream_fills",
                 "word2d.stream_windows", "word2d.mu_prefix"):
        assert name in GRAPH, name


def test_the_oracle_stays_on_the_substitution():
    # every name of the oracle and its method entry, but verify, the
    # cross-check, and the method table it reads
    roots = [{name} for name in GRAPH if name.startswith("oracle.")
             and name not in ("oracle.verify", "oracle.METHODS")]
    for refs in roots + [METHODS["oracle"]]:
        assert not _inside(reach(refs), FILLS | {
            "word2d.swap_row_alphabet", "word1d.factor_prefix",
            "word1d.factors1d", "word1d.right_extensions", "word1d._special",
            "frames", "dawg", "conjugacy"}), refs
    for name in ("oracle.stream_subwords", "oracle.oracle_occurrences"):
        assert "word2d.mu_prefix" in reach({name}), name


def test_dawg_and_extension_read_no_prefix():
    for name in ("dawg.stream_dawg", "frames.stream_extension"):
        names = reach({name})
        assert not names & {"word2d.stream_windows", "word2d.mu_prefix"}, name
        assert "word2d.stream_fills" in names, name


def test_dawg_borrows_no_extension_step():
    # both constructions hand stream_fills first-occurrence offsets, so a
    # DAWG walk that grew its paths by the extension step would agree with
    # extend by construction and leave verify's cross-check empty
    assert not reach({"dawg.stream_dawg"}) & {
        "word1d._special", "word1d.right_extensions", "word1d.factors1d"}
    assert "word1d._special" in reach({"frames.stream_extension"})


def test_conjugation_fills_nothing():
    for name in ("conjugacy.stream_conjugation",
                 "conjugacy.stream_prefix_conjugates",
                 "conjugacy.stream_class"):
        names = reach({name})
        assert not _inside(names, FILLS | {"frames", "dawg"}), name
        assert "word2d.stream_windows" in names, name


def test_each_method_has_one_reader_and_no_other_method():
    for method, refs in METHODS.items():
        names = reach(refs)
        assert len(names & READERS) == 1, (method, names & READERS)
        home = {name.split(".")[0] for name in refs}
        assert len(home) == 1, (method, home)
        assert not _inside(names, METHOD_MODULES - home), method


def test_the_rotation_reference_imports_only_the_standard_library():
    path = Path(__file__).with_name("rotation.py")
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    imported = {alias.name for n in nodes if isinstance(n, ast.Import)
                for alias in n.names} | {
        "." * n.level + (n.module or "") for n in nodes
        if isinstance(n, ast.ImportFrom)}
    assert imported
    # neither fib2d nor reference, nor a relative import, is a stdlib name
    foreign = {name for name in imported
               if name.split(".")[0] not in sys.stdlib_module_names}
    assert not foreign, foreign
