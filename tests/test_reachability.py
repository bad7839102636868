"""Every function, class and name the package defines is referred to by
the package.

A function or method under src/flagval passes when one of these holds:

- its name is read as a `Name` or an `Attribute` somewhere under
  src/flagval (a call, a reference, a table entry);
- a decorator call registers it (the `@_suite(...)` check suites);
- it is in ALLOWED below, with the reason it stays.

Dunder methods are skipped: the language calls them.  A function that
fails is reached by no product code, so no CLI config reaches it; if
only tests use it, it belongs in the tests.

A module-level class, or a name a module assigns at its top level,
passes when its name is read somewhere under src/flagval (assigning it
does not count), or when it is in ALLOWED_NAMES with its reason.

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

ALLOWED_NAMES = {
    "__init__.py:__version__": "the package version, read by tools and users, not by the package",
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


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _names_read(trees):
    """Every name read as a `Name` or an `Attribute`; assigning to a
    plain name does not read it."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_function_is_reached_by_the_package():
    trees = _trees()
    used = _names_read(trees)
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


def test_every_module_level_class_and_name_is_read_by_the_package():
    trees = _trees()
    read = _names_read(trees)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}:{n}" for n in names if n not in read and f"{module}:{n}" not in ALLOWED_NAMES]
    assert not unread, unread
    defined = {f"{m}:{t.id}" for m, tree in trees.items() for t in ast.walk(tree) if isinstance(t, ast.Name)}
    assert set(ALLOWED_NAMES) <= defined
