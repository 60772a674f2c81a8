"""Hygiene guards on the library modules: no unused import, no private
module-level name that nothing references beyond its own definition, and no
regex syntax that an older supported Python rejects."""
import ast
import importlib
import re
import warnings
from collections import Counter
from pathlib import Path

from sclkit.automata import _sre_parse  # re._parser, or sre_parse on Python 3.10

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
