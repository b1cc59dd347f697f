"""Every top-level function, class and constant of the package is read by
the package itself or by the benchmark, not only by tests.

A name counts as read where it appears outside its own top-level
definition as an identifier, an attribute or a string constant (the
benchmark's tracer names the functions it wraps by string). The package's
`__init__.py` re-exports names without reading them, so it is not
searched; `__main__.py` is searched but defines nothing that is checked.
"""

import ast
from collections import Counter
from pathlib import Path

import nh3econ

PACKAGE = Path(nh3econ.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"


def _defined_names(node: ast.stmt) -> list[str]:
    """Names that one top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _reads(tree: ast.AST) -> Counter:
    """How often each identifier, attribute name and string constant
    appears in `tree`."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _unread_names() -> list[str]:
    searched = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    searched += sorted(BENCH.rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in searched}
    everywhere = sum(map(_reads, trees.values()), Counter())
    unread = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__main__.py":
            continue
        for statement in tree.body:
            inside = _reads(statement)
            unread += [f"{path.stem}.{name}" for name in _defined_names(statement)
                       if everywhere[name] == inside[name]]
    return unread


def test_every_top_level_name_is_read_outside_the_tests():
    assert _unread_names() == []
