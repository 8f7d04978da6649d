"""``src/`` holds only what the commands run: every module-level function and class is reachable.

The reachability is by name, over the ASTs of ``src/corelattice/*.py``.  It
starts from ``cli.main``, from every module-level statement that is not a
definition or an import (tables such as ``suites.SUITES``), and from the names
the README's library example imports.  A reached function or class reaches
every name its source mentions: a plain name resolves through the module's own
definitions and its ``from .x import y`` imports, and ``x.y`` through
``from . import x``.  Reference routes that only the tests call belong in
``tests/reference.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "corelattice"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
IMPORTS = (ast.Import, ast.ImportFrom)


def _scopes(trees):
    """module -> name -> ("def", module, name), ("from", module, name) or ("module", module, None)."""
    scopes = {}
    for mod, tree in trees.items():
        scope = scopes[mod] = {}
        for node in tree.body:
            if isinstance(node, DEFS):
                scope[node.name] = ("def", mod, node.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        scope[bound] = ("module", alias.name, None)
                    else:
                        scope[bound] = ("from", node.module, alias.name)
    return scopes


def _resolve(scopes, mod, name):
    while True:
        target = scopes.get(mod, {}).get(name)
        if target is None or target[0] != "from":
            return target
        _, mod, name = target


def _references(scopes, mod, node):
    """The definitions that the names in ``node`` resolve to."""
    for sub in ast.walk(node):
        target = None
        if isinstance(sub, ast.Name):
            target = _resolve(scopes, mod, sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            owner = _resolve(scopes, mod, sub.value.id)
            if owner is not None and owner[0] == "module":
                target = _resolve(scopes, owner[1], sub.attr)
        if target is not None and target[0] == "def":
            yield target[1], target[2]


def readme_library_imports():
    """``(module, name)`` for each name the README's library example imports from the package."""
    library = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    (block,) = re.findall(r"^```python\n(.*?)^```", library.split("\n## ", 1)[0], re.M | re.S)
    out = []
    for node in ast.walk(ast.parse(block)):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "corelattice":
            mod = node.module.partition(".")[2] or "__init__"
            out.extend((mod, alias.name) for alias in node.names)
    return out


def unreached_definitions():
    """Sorted ``module.name`` of the module-level functions and classes that nothing reaches."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    scopes = _scopes(trees)
    nodes = {(mod, node.name): node for mod, tree in trees.items() for node in tree.body if isinstance(node, DEFS)}
    roots = [_resolve(scopes, "cli", "main")]
    roots += [_resolve(scopes, mod, name) for mod, name in readme_library_imports()]
    if None in roots:
        raise AssertionError("cli.main or a name of the README example does not resolve")
    todo = [(mod, name) for _, mod, name in roots]
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFS + IMPORTS):
                todo.extend(_references(scopes, mod, node))
    seen = set()
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(_references(scopes, key[0], nodes[key]))
    return sorted(f"{mod}.{name}" for mod, name in nodes.keys() - seen)


def test_readme_example_imports_are_read():
    assert ("__init__", "enumerate_cores") in readme_library_imports()


def test_every_definition_in_src_is_reached():
    assert unreached_definitions() == []
