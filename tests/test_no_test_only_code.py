"""The package holds no code that only tests reach. Four rules:

- definitions: every function, method, property and class that the
  package defines is used by the package itself;
- fields: every dataclass and NamedTuple field is read by attribute in
  the package or in the benchmark (`perfbench/`);
- defaults: every parameter with a default is left at that default by at
  least one call in the package, and set by at least one;
- constants: every name that a module-level assignment of the package
  binds is loaded by the package.

A definition, field, default or constant that only tests reach is
test-only code: it keeps the package's surface larger than what a run
needs, and it is checked for behaviour that nothing relies on. The package's
`__init__.py` only re-exports names, so a name listed there alone does
not count as used. Dunder names are called by Python itself and are
exempt. Names are matched, not resolved: a read of `x.seconds` counts
for every field named `seconds`, and a call of `f` for every function
named `f`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "emberwatch"
BENCHMARK = ROOT / "perfbench"

# Defaults that no call in the package sets or leaves, by (module, function, parameter).
DEFAULTS_ALLOWED = {
    # The console script calls main() and parses sys.argv; tests pass argv to
    # reach the command line in-process.
    ("cli.py", "main", "argv"),
}


def _modules():
    """The parsed tree of every module of the package but `__init__.py`, by file name."""
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _benchmark_modules():
    """The parsed tree of every benchmark module but its tests."""
    paths = [path for path in sorted(BENCHMARK.glob("*.py")) if not path.name.startswith("test_")]
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


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


def _constants(tree):
    """(name, line) of each name a module-level assignment binds, tuple unpacking included."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in target.elts if isinstance(target, ast.Tuple) else [target]:
                if isinstance(node, ast.Name):
                    yield node.id, stmt.lineno


def _loaded(tree):
    """Every name the module loads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _name_of(node):
    """The name a decorator, base class or callee is written with: `f` for `f` and `m.f`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _fields(tree):
    """(class, field, line) of each dataclass and NamedTuple field in the module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        kinds = {_name_of(d) for d in node.decorator_list} | {_name_of(b) for b in node.bases}
        if kinds.isdisjoint({"dataclass", "NamedTuple"}):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield node.name, stmt.target.id, stmt.lineno


def _attributes_read(tree):
    """Every attribute the module reads: loads, and the targets of augmented assignments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            names.add(node.target.attr)
    return names


def _defaults(tree):
    """(function, parameter, line, position) of each parameter with a default.

    The position counts the arguments a call passes positionally, so a
    method's `self` (or `cls`) is not counted; it is None for a
    keyword-only parameter.
    """
    methods = {
        id(stmt)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef) and "staticmethod" not in {_name_of(d) for d in stmt.decorator_list}
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(node) in methods else 0
        first_default = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first_default:], start=first_default):
            yield node.name, arg.arg, arg.lineno, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, arg.lineno, None


def _passes(call, parameter, position):
    """Whether the call may set the parameter: by keyword, by position or by unpacking."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


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


def test_every_field_is_read_by_the_package_or_the_benchmark():
    modules = _modules()
    fields = [(module, *found) for module, tree in modules.items() for found in _fields(tree)]
    assert ("bounds.py", "TraverseBound", "seconds") in {f[:3] for f in fields}
    trees = list(modules.values()) + _benchmark_modules()
    read = set().union(*(_attributes_read(tree) for tree in trees))
    unread = [f"{module}:{line} {cls}.{name}" for module, cls, name, line in fields if name not in read]
    assert not unread, f"fields that src/emberwatch and perfbench never read: {unread}"


def test_every_default_is_both_left_and_set_by_the_package():
    modules = _modules()
    calls = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_name_of(node), []).append(node)
    defaults = [(module, *found) for module, tree in modules.items() for found in _defaults(tree)]
    assert ("cli.py", "main", "argv") in {d[:3] for d in defaults}
    findings = []
    for module, function, parameter, line, position in defaults:
        if (module, function, parameter) in DEFAULTS_ALLOWED:
            continue
        passed = [_passes(call, parameter, position) for call in calls.get(function, [])]
        if not any(passed):
            findings.append(f"{module}:{line} {function}({parameter}): no call sets it")
        if all(passed):
            findings.append(f"{module}:{line} {function}({parameter}): no call leaves it at its default")
    assert not findings, f"defaults that only tests set or leave: {findings}"


def test_every_constant_is_loaded_by_the_package():
    modules = _modules()
    constants = [(module, *found) for module, tree in modules.items() for found in _constants(tree)]
    assert {("coordination.py", "REPLAN_CAP"), ("tracking.py", "WIND_AZIMUTH")} <= {c[:2] for c in constants}
    loaded = set().union(*(_loaded(tree) for tree in modules.values()))
    unloaded = [
        f"{module}:{line} {name}" for module, name, line in constants if not _is_dunder(name) and name not in loaded
    ]
    assert not unloaded, f"module-level constants that src/emberwatch never loads: {unloaded}"
