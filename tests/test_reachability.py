"""Every function the package defines is referred to by the package.

A function or method under src/flagval passes when one of these holds:

- its name appears as a `Name` or an `Attribute` somewhere under
  src/flagval (a call, a reference, a table entry);
- a decorator call registers it (the `@_suite(...)` check suites);
- it is in ALLOWED below, with the reason it stays.

Dunder methods are skipped: the language calls them.  A function that
fails is reached by no product code, so no CLI config reaches it; if
only tests use it, it belongs in the tests.

The check matches names, not bindings, so it has a blind spot: a
function passes whenever some other definition or variable shares its
name, as `Poly.evaluate` once did beside `PsiMap.evaluate`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flagval"

ALLOWED = {
    "Poly.from_dense": "the validating dense constructor; the tests build polynomials with it",
}


def _definitions(tree):
    """(qualified name, node) of every function and method in tree."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child))
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def test_every_function_is_reached_by_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreached = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in used or qualname in ALLOWED:
                continue
            if any(isinstance(d, ast.Call) for d in node.decorator_list):
                continue
            unreached.append(f"{module}:{qualname}")
    assert not unreached, unreached
    assert set(ALLOWED) <= {q for tree in trees.values() for q, _ in _definitions(tree)}
