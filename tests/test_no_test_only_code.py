"""Every function, method, property and class that the package defines is
used by the package itself.

A definition that only tests reach is test-only code: it keeps the
package's surface larger than what a run needs, and it is checked for
behaviour that nothing relies on. The package's `__init__.py` only
re-exports names, so a name listed there alone does not count as used.
Dunder names are called by Python itself and are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "emberwatch"


def _modules():
    """The parsed tree of every module of the package but `__init__.py`, by file name."""
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _defined(tree):
    """(name, line) of each function, method, property and class in the module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.name, node.lineno) for node in ast.walk(tree) if isinstance(node, kinds)]


def _referenced(tree):
    """Every name the module loads, calls or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referenced_by_the_package():
    modules = _modules()
    assert "tracking.py" in modules
    used = set().union(*(_referenced(tree) for tree in modules.values()))
    unused = [
        f"{module}:{line} {name}"
        for module, tree in modules.items()
        for name, line in _defined(tree)
        if not _is_dunder(name) and name not in used
    ]
    assert not unused, f"defined in src/emberwatch but used only outside it: {unused}"
