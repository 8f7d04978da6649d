"""``src/`` holds only what the commands run: every module-level function and class, and every method, is reachable.

The reachability is by name, over the ASTs of ``src/corelattice/*.py``.  It
starts from ``cli.main``, from every module-level statement that is not a
definition or an import (tables such as ``suites.SUITES``), and from the names
the README's library example imports.  A reached function or class reaches
every name its source mentions: a plain name resolves through the
``from .x import y`` imports of the definition's own body, then through the
module's own definitions and its module-level ones, and ``x.y`` through
``from . import x`` in either place.  A name the package exports resolves
through ``__init__``'s table of home modules, read as a literal.  The module
functions the interpreter calls (``__getattr__``, ``__dir__``) are reached.
Reference routes that only the tests call belong in ``tests/reference.py``.

A reached class brings its dunder methods, which the interpreter calls, but
not the bodies of its other methods.  Such a method is reached when reached
code, or the README's library example, names it as an attribute (``x.name``,
whatever ``x`` is); only then does its body count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "corelattice"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (*FUNCTIONS, ast.ClassDef)
IMPORTS = (ast.Import, ast.ImportFrom)
MODULE_HOOKS = ("__getattr__", "__dir__")  # module-level functions the interpreter calls by name


def _relative_imports(statements):
    """name -> ("from", module, name) or ("module", module, None) for the ``from .`` imports among ``statements``."""
    bound = {}
    for node in statements:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    bound[alias.asname or alias.name] = ("module", alias.name, None)
                else:
                    bound[alias.asname or alias.name] = ("from", node.module, alias.name)
    return bound


def _export_table(tree):
    """``__init__``'s literal table of exported name -> home module, as ("from", home, name) bindings."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_HOMES"]:
            return {name: ("from", home, name) for name, home in ast.literal_eval(node.value).items()}
    raise AssertionError("__init__ has no _HOMES table")


def _scopes(trees):
    """module -> name -> ("def", module, name), ("from", module, name) or ("module", module, None)."""
    scopes = {}
    for mod, tree in trees.items():
        scope = scopes[mod] = _relative_imports(tree.body)
        scope.update((node.name, ("def", mod, node.name)) for node in tree.body if isinstance(node, DEFS))
        if mod == "__init__":
            scope.update(_export_table(tree))
    return scopes


def _resolve(scopes, mod, name, local=None):
    target = (local or {}).get(name) or scopes.get(mod, {}).get(name)
    while target is not None and target[0] == "from":
        target = scopes.get(target[1], {}).get(target[2])
    return target


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _walk(node, skipped):
    """``ast.walk`` over ``node``, leaving out the method definitions in ``skipped`` (by id)."""
    todo = [node]
    while todo:
        sub = todo.pop()
        yield sub
        todo.extend(child for child in ast.iter_child_nodes(sub) if id(child) not in skipped)


def _references(scopes, mod, node, skipped=frozenset()):
    """The definitions that the names in ``node`` resolve to, through the imports in its body first."""
    local = _relative_imports(_walk(node, skipped)) if isinstance(node, DEFS) else {}
    for sub in _walk(node, skipped):
        target = None
        if isinstance(sub, ast.Name):
            target = _resolve(scopes, mod, sub.id, local)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            owner = _resolve(scopes, mod, sub.value.id, local)
            if owner is not None and owner[0] == "module":
                target = _resolve(scopes, owner[1], sub.attr)
        if target is not None and target[0] == "def":
            yield target[1], target[2]


def _attributes(node, skipped=frozenset()):
    """The names that ``node`` reads or writes as attributes."""
    return {sub.attr for sub in _walk(node, skipped) if isinstance(sub, ast.Attribute)}


def _readme_library_block():
    library = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    (block,) = re.findall(r"^```python\n(.*?)^```", library.split("\n## ", 1)[0], re.M | re.S)
    return ast.parse(block)


def readme_library_imports():
    """``(module, name)`` for each name the README's library example imports from the package."""
    out = []
    for node in ast.walk(_readme_library_block()):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "corelattice":
            mod = node.module.partition(".")[2] or "__init__"
            out.extend((mod, alias.name) for alias in node.names)
    return out


def unreached_definitions():
    """Sorted ``module.name`` and ``module.Class.method`` of the definitions that nothing reaches."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    scopes = _scopes(trees)
    nodes = {(mod, node.name): node for mod, tree in trees.items() for node in tree.body if isinstance(node, DEFS)}
    # the non-dunder methods of module-level classes: reached by attribute name, once their class is
    methods = {
        (mod, f"{cls.name}.{node.name}"): node
        for (mod, _), cls in nodes.items() if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, FUNCTIONS) and not _is_dunder(node.name)
    }
    skipped = {id(node) for node in methods.values()}
    roots = [_resolve(scopes, "cli", "main")]
    roots += [_resolve(scopes, mod, name) for mod, name in readme_library_imports()]
    if None in roots:
        raise AssertionError("cli.main or a name of the README example does not resolve")
    todo = [(mod, name) for _, mod, name in roots]
    todo += [key for key in nodes if key[1] in MODULE_HOOKS]
    named = _attributes(_readme_library_block())
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFS + IMPORTS):
                todo.extend(_references(scopes, mod, node))
                named |= _attributes(node)
    nodes.update(methods)
    seen = set()
    while todo:
        while todo:
            key = todo.pop()
            if key not in seen:
                seen.add(key)
                todo.extend(_references(scopes, key[0], nodes[key], skipped))
                named |= _attributes(nodes[key], skipped)
        todo = [(mod, name) for mod, name in methods.keys() - seen
                if (mod, name.partition(".")[0]) in seen and name.partition(".")[2] in named]
    return sorted(f"{mod}.{name}" for mod, name in nodes.keys() - seen)


def test_readme_example_imports_are_read():
    assert ("__init__", "enumerate_cores") in readme_library_imports()


def test_every_definition_in_src_is_reached():
    assert unreached_definitions() == []
