"""Every name a module imports is used in that module, every name a module
defines is used somewhere else, and every parameter is read by its function.

Stands in for a linter's unused-import, dead-code and unused-argument rules.
The package __init__ is exempt from the first: its imports are the public
re-exports, each listed in __all__.  Also checks that every module
attribute the benchmark's tracer wraps (perfbench/tracing.py, loaded
read-only) still exists.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import ample

PACKAGE = Path(ample.__file__).parent
TESTS = Path(__file__).parent
TRACING = TESTS.parent / "perfbench" / "tracing.py"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def test_public_api_matches_its_imports():
    # a name dropped from a module must leave __all__ and the package's
    # imports together
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert [name for name in ample.__all__ if not hasattr(ample, name)] == []
    assert sorted(n for n in imported if not n.startswith("_") and n not in ample.__all__) == []


def _defined(node: ast.stmt) -> list[str]:
    """Names a module-level statement defines, dunders left out."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


def _references(tree: ast.AST) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.asname or node.name)
    return refs


def test_every_module_level_name_is_referenced():
    # in src or tests; a reference inside the statement that defines the
    # name does not count
    modules = sorted(PACKAGE.glob("*.py"))
    paths = modules + sorted(TESTS.glob("*.py"))
    bodies = {p: ast.parse(p.read_text(encoding="utf-8")).body for p in paths}
    refs = {(p, i): _references(node) for p, body in bodies.items() for i, node in enumerate(body)}
    unused = [
        f"{path.name}:{node.lineno}: {name}"
        for path in modules
        for i, node in enumerate(bodies[path])
        for name in _defined(node)
        if not any(name in r for key, r in refs.items() if key != (path, i))
    ]
    assert unused == []


def _unused_parameters(path: Path) -> list[str]:
    out = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            read = {
                n.id
                for stmt in fn.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            out += [f"{path.stem}.{fn.name}: {p}" for p in params if p not in ("self", "cls", *read)]
    return out


def test_every_parameter_is_used():
    # stands in for a linter's unused-argument rule; a parameter counts as
    # used when its function's body reads it, nested functions included
    modules = sorted(PACKAGE.glob("*.py"))
    unused = [entry for path in modules for entry in _unused_parameters(path)]
    assert unused == []


def test_every_traced_call_site_exists(monkeypatch):
    # the benchmark's tracer wraps module attributes that callers look up
    # at call time; a name moved out of its module would leave its layer
    # silently at 0, so every target must still resolve to a callable
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclass looks it up
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
