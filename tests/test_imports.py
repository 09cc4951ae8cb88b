"""Every name a module imports is used in that module, every name a module
defines is used somewhere else, and every parameter is read by its function.
No module outside the floating-point layer imports numpy or that layer when
it is imported.  No function takes a ring beside a value that carries one.

Stands in for a linter's unused-import, dead-code and unused-argument rules.
The package __init__ is exempt from the first: its imports are the public
re-exports, each listed in __all__.  Also checks that every module
attribute the benchmark's tracer wraps (perfbench/tracing.py, loaded
read-only) still exists, and that the package and pyproject.toml give the
same version.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import ample

PACKAGE = Path(ample.__file__).parent
TESTS = Path(__file__).parent
TRACING = TESTS.parent / "perfbench" / "tracing.py"
FLOAT_LAYER = ("curvature", "spheremin", "sweep")  # the modules that need numpy


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
    # imports, or its lazy names, together; each lazy name resolves to the
    # object its module defines
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = imported | set(ample._LAZY)
    assert [name for name in ample.__all__ if not hasattr(ample, name)] == []
    assert sorted(n for n in public if not n.startswith("_") and n not in ample.__all__) == []
    assert sorted(set(ample._LAZY.values())) == list(FLOAT_LAYER)
    wrong = [
        name
        for name, module in ample._LAZY.items()
        if getattr(ample, name) is not getattr(importlib.import_module(f"ample.{module}"), name)
    ]
    assert wrong == []


def _is_float_layer(module: str) -> bool:
    top, _, rest = module.partition(".")
    return top == "numpy" or (top == "ample" and rest.partition(".")[0] in FLOAT_LAYER)


def _float_imports(path: Path) -> list[str]:
    """Imports of numpy or a float-layer module that run when the module is imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # runs only when called
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(["ample"] * (node.level > 0) + [node.module] * bool(node.module))
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            stack.extend(ast.iter_child_nodes(node))
            continue
        found += [f"{path.name}:{node.lineno}: {m}" for m in modules if _is_float_layer(m)][:1]
    return found


def test_exact_layer_never_imports_the_float_layer():
    # every module outside the float layer loads with `import ample`, which
    # must not pay for numpy; a function may import the float layer on call
    exact = sorted(p for p in PACKAGE.glob("*.py") if p.stem not in FLOAT_LAYER)
    assert {"bundles", "intersection", "criteria", "config", "cli", "report", "errors"} <= {
        p.stem for p in exact
    }
    found = [entry for path in exact for entry in _float_imports(path)]
    assert found == []


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


RING_CARRIERS = {"CohClass", "BundleExpr", "ChernData"}  # types whose values hold their ring


def _annotation_names(node: ast.AST | None) -> set[str]:
    names = set()
    for n in ast.walk(node) if node else ():
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):  # a forward reference
            names |= _annotation_names(ast.parse(n.value, mode="eval"))
    return names


def _ring_beside_a_class(path: Path) -> list[str]:
    out = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = fn.args
            params = [p for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            kinds = [_annotation_names(p.annotation) for p in params]
            rings = [i for i, k in enumerate(kinds) if "SurfaceRing" in k]
            carriers = [i for i, k in enumerate(kinds) if k & RING_CARRIERS]
            if any(i != j for i in rings for j in carriers):
                out.append(f"{path.stem}.{fn.name}")
    return out


def test_no_function_takes_a_ring_beside_a_class():
    # a divisor class, a bundle built from classes and its Chern data each
    # carry their ring, so a ring passed beside one only restates it; the
    # config parsers read a ring beside raw JSON values, which is allowed
    modules = sorted(PACKAGE.glob("*.py"))
    found = [entry for path in modules for entry in _ring_beside_a_class(path)]
    assert found == []


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


def test_package_version_matches_pyproject():
    # read with a regex: Python 3.10 has no tomllib
    text = (TESTS.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    version = re.search(r'^version\s*=\s*"([^"]+)"', project.group(1), re.M)
    assert version.group(1) == ample.__version__
