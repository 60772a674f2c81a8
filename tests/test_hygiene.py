"""Hygiene guards on the library modules: no unused import, no private
module-level name that nothing references beyond its own definition, no
`dataclasses` import, no regex syntax that an older supported Python rejects,
and an import structure without cycles.  Also the two shape-dependency analyses against plain
reachability, and a failing property test that reports itself under this
repository's pytest settings."""
import ast
import importlib
import random
import re
import subprocess
import sys
import warnings
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from sclkit import shacl as sh
from sclkit.automata import _sre_parse  # re._parser, or sre_parse on Python 3.10
from sclkit.rdf import Graph, Iri
from sclkit.scl import ConstraintAxiom, PsiShape, SclSentence, ShapeRel, is_recursive_sentence, psi_and_all

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "sclkit").glob("*.py"))
CALLERS = [p for d in ("src", "tests", "perfbench", "demos") for p in sorted((ROOT / d).rglob("*.py"))]


def _references(node) -> set:
    """Names a piece of code reads: loaded names, attributes, names imported
    from elsewhere, and strings (getattr, monkeypatch)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def _bound_names(stmt) -> list:
    """Names a module-level statement defines, looking into if/try blocks."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [(a.asname or a.name).split(".")[0] for a in stmt.names]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    if isinstance(stmt, (ast.If, ast.Try)):
        blocks = [stmt.body, stmt.orelse] + [h.body for h in getattr(stmt, "handlers", [])]
        return [name for block in blocks for s in block for name in _bound_names(s)]
    return []


def test_no_unused_imports_in_the_library():
    unused = []
    for path in LIBRARY:
        if path.name == "__init__.py":  # its imports are the package's re-exports
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for n in ast.walk(tree):
            if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", None) != "__future__":
                for a in n.names:
                    name = (a.asname or a.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{n.lineno} {name}")
    assert not unused, unused


def test_every_private_module_name_is_referenced():
    # per top-level statement of every file, the names it reads
    statements = {path: [(stmt, _references(stmt)) for stmt in ast.parse(path.read_text()).body]
                  for path in CALLERS}
    readers = Counter(name for stmts in statements.values() for _, refs in stmts for name in refs)
    unreferenced = []
    for path in LIBRARY:
        for stmt, refs in statements[path]:
            for name in _bound_names(stmt):
                private = name.startswith("_") and not name.startswith("__")
                if private and readers[name] - (name in refs) == 0:
                    unreferenced.append(f"{path.name}:{stmt.lineno} {name}")
    assert not unreferenced, unreferenced


def test_no_library_module_imports_dataclasses():
    # declaring dataclasses made up most of the package's import time;
    # value classes derive from sclkit.value.Value
    found = [f"{path.name}:{n.lineno}" for path in LIBRARY for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, ast.Import) and any(a.name == "dataclasses" for a in n.names)
             or isinstance(n, ast.ImportFrom) and n.module == "dataclasses"]
    assert not found, found


def _regex_syntax_newer_than_3_10(items) -> list:
    """Possessive repeats and atomic groups anywhere in a parse tree; Python
    3.10's re rejects both ('*+', '++', '?+', '{m,n}+', '(?>...)')."""
    found = []
    for op, av in items:
        if op.name in ("POSSESSIVE_REPEAT", "ATOMIC_GROUP"):
            found.append(op.name)
        for part in av if isinstance(av, (tuple, list)) else (av,):
            for sub in part if isinstance(part, list) else (part,):
                if isinstance(sub, _sre_parse.SubPattern):
                    found += _regex_syntax_newer_than_3_10(sub)
    return found


def test_library_regexes_parse_on_python_3_10():
    # pyproject.toml supports Python 3.10.  Checked: every compiled pattern in
    # module globals (f-strings included), and every string literal that
    # parses as a regex (patterns compiled in functions).
    patterns = []
    for path in LIBRARY:
        for value in vars(importlib.import_module(f"sclkit.{path.stem}")).values():
            members = value.values() if isinstance(value, dict) else value if isinstance(value, (tuple, list)) else (value,)
            for v in members:
                if isinstance(v, re.Pattern) and isinstance(v.pattern, str):
                    patterns.append((path.name, v.pattern, v.flags))
        patterns += [(path.name, n.value, 0) for n in ast.walk(ast.parse(path.read_text()))
                     if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    newer = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, pattern, flags in patterns:
            try:
                tree = _sre_parse.parse(pattern, flags)
            except re.error:
                continue  # not a regex
            newer += [f"{name}: {pattern!r} uses {op}" for op in _regex_syntax_newer_than_3_10(tree)]
    assert not newer, newer


def _sclkit_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "sclkit"
    return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "sclkit" for a in node.names)


def test_no_library_import_inside_a_function():
    inside = [f"{path.name}:{n.lineno}" for path in LIBRARY
              for f in ast.walk(ast.parse(path.read_text()))
              if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
              for n in ast.walk(f) if _sclkit_import(n)]
    assert not inside, inside


def _module_level_imports(body: list) -> set:
    """Library modules a module body imports when it runs: if/try blocks are
    looked into, `if TYPE_CHECKING:` blocks are not."""
    out = set()
    for stmt in body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            out |= {a.name for a in stmt.names} if stmt.module is None else {stmt.module.split(".")[0]}
        elif isinstance(stmt, ast.If) and not (isinstance(stmt.test, ast.Name) and stmt.test.id == "TYPE_CHECKING"):
            out |= _module_level_imports(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            blocks = [stmt.body, stmt.orelse, stmt.finalbody] + [h.body for h in stmt.handlers]
            out |= _module_level_imports([s for block in blocks for s in block])
    return out


def test_module_level_imports_are_acyclic():
    graph = {path.stem: _module_level_imports(ast.parse(path.read_text()).body) for path in LIBRARY}
    assert graph["scl"] and graph["filters"]  # the walk sees imports at all
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle {exc.args[1]}")


@pytest.mark.parametrize("module", [p.stem for p in LIBRARY])
def test_each_module_imports_alone(module):
    # the package is registered without running its __init__, which imports
    # every module; so the named module is the first to load
    code = ("import importlib, sys, types\n"
            "pkg = types.ModuleType('sclkit')\n"
            f"pkg.__path__ = [{str(ROOT / 'src' / 'sclkit')!r}]\n"
            "sys.modules['sclkit'] = pkg\n"
            f"importlib.import_module('sclkit.{module}')\n")
    if module == "__init__":
        code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import sclkit"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def _on_a_cycle(edges: dict) -> bool:
    """Plain reachability: some node reaches itself over one or more edges."""
    for start in edges:
        seen, stack = set(), list(edges[start])
        while stack:
            n = stack.pop()
            if n == start:
                return True
            if n not in seen:
                seen.add(n)
                stack.extend(edges.get(n, ()))
    return False


def _document(edges: dict) -> sh.Document:
    return sh.Document(tuple(
        sh.Shape(name, (), None, sh.And(tuple(sh.Ref(r) for r in sorted(refs, key=lambda i: i.value)))
                 if refs else sh.Top())
        for name, refs in edges.items()))


def _sentence(edges: dict) -> SclSentence:
    return SclSentence(tuple(
        ConstraintAxiom(ShapeRel(name), psi_and_all([PsiShape(ShapeRel(r)) for r in sorted(refs, key=lambda i: i.value)]))
        for name, refs in edges.items()))


def test_recursion_tests_agree_with_reachability():
    rng = random.Random(20)
    for _ in range(2000):
        names = [Iri(f"http://ex/s{i}") for i in range(rng.randint(1, 7))]
        density = rng.random() * 0.5
        edges = {n: {r for r in names if rng.random() < density} for n in names}  # self-loops too
        expected = _on_a_cycle(edges)
        m = _document(edges)
        assert sh.is_recursive(m) == expected
        assert sh.is_recursive(m) == any(s.name in sh.referenced_shapes_closure(m, s.name) for s in m.shapes)
        # a sentence may also mention shapes it does not define; they close no cycle
        undefined = {n for n in names if rng.random() < 0.2}
        defined = {n: refs for n, refs in edges.items() if n not in undefined}
        assert is_recursive_sentence(_sentence(defined)) == _on_a_cycle(defined)
        order = sh.evaluation_order(edges)
        if order is not None:
            placed = {n: i for i, n in enumerate(order)}
            assert all(placed[r] < placed[n] for n, refs in edges.items() for r in refs)


def test_recursion_tests_on_a_long_chain():
    names = [Iri(f"http://ex/s{i}") for i in range(5000)]
    edges = {n: {nxt} for n, nxt in zip(names, names[1:])}
    edges[names[-1]] = set()
    assert not sh.is_recursive(_document(edges))
    assert not is_recursive_sentence(_sentence(edges))
    edges[names[-1]] = {names[0]}
    assert sh.is_recursive(_document(edges))
    assert is_recursive_sentence(_sentence(edges))


def test_only_rdf_reads_the_private_attributes_of_a_graph():
    private = {name for name in Graph.__slots__ if name.startswith("_")}
    assert private  # the index slots
    readers = [f"{path.relative_to(ROOT)}:{n.lineno} {n.attr}" for path in CALLERS
               if path != ROOT / "src" / "sclkit" / "rdf.py"
               for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Attribute) and n.attr in private]
    assert not readers, readers


def test_xone_is_eliminated_in_three_places():
    # validation (compile_document), the sentence (tau) and the partial-to-total rewrite
    callers = set()
    for path in LIBRARY:
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for n in ast.walk(f):
                    if isinstance(n, ast.Call) and "eliminate_xone" in (
                            getattr(n.func, "id", None), getattr(n.func, "attr", None)):
                        callers.add(f.name)
    assert callers == {"compile_document", "tau", "gamma_transform"}


def test_a_failing_property_test_reports_its_falsifying_example(pytester):
    """Under this repository's pytest settings (every warning an error), a
    failing @given test is one failed test with its falsifying example and
    exit code 1, not an INTERNALERROR (exit code 3) without one."""
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    pytester.mkdir("tests")  # the settings' testpaths
    (pytester.path / "tests" / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_every_integer_is_negative(n):\n"
        "    assert n < 0\n", encoding="utf-8")
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert result.ret == 1, output
    result.assert_outcomes(failed=1)
    assert "Falsifying example" in output and "INTERNALERROR" not in output
