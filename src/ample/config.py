"""Config-document parsing for the command-line front end.

Configs are JSON objects.  Rationals are written as integers, "p/q" or
decimal strings (floats and exponent notation are rejected wherever
exactness matters, and so are numbers too long for a report to print);
divisor classes are objects mapping basis names to rationals; bundles are
nested objects tagged by "kind".  Every key is checked: anything unknown
for the active command is an error naming the offending JSON path, so a
typo cannot silently fall back to a default.

Which top-level keys a command accepts comes from its entry in the command
table, cli.COMMANDS.  This module owns how each key is parsed, its default
(that of its RunConfig field) and how a report's inputs echo it: _KEYS lists
every key once, with its parser, whether it is required and its echo, in the
order keys are read; _inputs_doc builds the inputs that cli.run puts in a
report.  A new command that only reuses existing keys needs nothing here; a
new key needs a RunConfig field and a _KEYS row.  The sweep object parses
into a SweepConfig, defined here together with INT_MINIMUMS, the table of
its integer bounds that the parser and SweepConfig both check, and MODES,
the sampler modes that SweepConfig and the --mode flag accept.  None of them
needs numpy, so parsing a config never loads the floating-point layer
(curvature, spheremin, sweep); sweep imports SweepConfig from here.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from .bundles import BundleExpr, Dual, Line, Sum, Twist
from .criteria import Assertions
from .errors import ConfigError, InvalidInputError
from .intersection import CohClass, SurfaceRing, as_rational

# lower bound of each integer SweepConfig field, in the order a config
# document's sweep object is read
INT_MINIMUMS = {
    "samples": 1,
    "seed": 0,
    "restarts": 1,
    "random_vectors": 0,
    "iterations": 1,
    "batch_size": 1,
    "threads": 1,
    "histogram_bins": 1,
}

MODES = ("random", "projectively-flat")  # the sampler modes of a sweep


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one sweep invocation.

    mode "random" draws `samples` independent curvatures per configuration;
    mode "projectively-flat" evaluates the single equality-case curvature
    per rank (epsilon and samples are forced to 0 and 1).
    """

    ranks: tuple[int, ...]
    epsilons: tuple[float, ...] = (0.0,)
    samples: int = 1000
    seed: int = 0
    restarts: int = 5
    random_vectors: int = 10
    iterations: int = 60
    tol: float = 1e-6
    threshold: float = 1e-9
    batch_size: int = 4096
    threads: int = 1
    mode: str = "random"
    histogram_bins: int = 40

    def __post_init__(self):
        if not self.ranks or any(r < 2 for r in self.ranks):
            raise InvalidInputError("ranks must be a nonempty list of integers >= 2")
        if not self.epsilons or any(not (math.isfinite(e) and e >= 0) for e in self.epsilons):
            raise InvalidInputError("epsilons must be nonempty with entries >= 0")
        for name, minimum in INT_MINIMUMS.items():
            if getattr(self, name) < minimum:
                raise InvalidInputError(f"{name} must be >= {minimum}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvalidInputError(f"tol must be finite and > 0, got {self.tol!r}")
        if not (math.isfinite(self.threshold) and self.threshold >= 0):
            raise InvalidInputError(f"threshold must be finite and >= 0, got {self.threshold!r}")
        if self.mode not in MODES:
            raise InvalidInputError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class RunConfig:
    command: str
    ring: SurfaceRing | None = None
    bundle: BundleExpr | None = None
    assertions: Assertions = Assertions()
    divisor: CohClass | None = None
    curves: tuple[CohClass, ...] = ()
    sweep: SweepConfig | None = None
    r: int | None = None
    a: Fraction | None = None
    omega_sq: Fraction | None = None
    samples: int = 1000
    seed: int = 0
    csv_path: str | None = None
    output_path: str | None = None


def _fail(path: str, message: str):
    raise ConfigError(message, path=path)


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return dict(value)


def _array(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        _fail(path, f"must be finite, got {value!r}")
    return float(value)


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    return value


def _rational(value, path: str) -> Fraction:
    try:
        return as_rational(value)
    except (InvalidInputError, TypeError) as exc:
        _fail(path, str(exc))


def _reject_unknown(obj: dict, path: str):
    if obj:
        key = sorted(obj)[0]
        _fail(f"{path}.{key}" if path else key, "unknown key")


def _parse_ring(value, path: str) -> SurfaceRing:
    obj = _object(value, path)
    basis = _array(obj.pop("basis", None), f"{path}.basis")
    if not all(isinstance(name, str) for name in basis):
        _fail(f"{path}.basis", "basis names must be strings")
    rows_raw = _array(obj.pop("pairing", None), f"{path}.pairing")
    rows = []
    for i, row in enumerate(rows_raw):
        row = _array(row, f"{path}.pairing[{i}]")
        rows.append([_rational(x, f"{path}.pairing[{i}][{j}]") for j, x in enumerate(row)])
    _reject_unknown(obj, path)
    try:
        return SurfaceRing.from_rows(tuple(basis), rows)
    except InvalidInputError as exc:
        _fail(path, str(exc))


def _parse_divisor(value, path: str, ring: SurfaceRing) -> CohClass:
    obj = _object(value, path)
    coords = {}
    for name, raw in obj.items():
        if name not in ring.basis_names:
            _fail(f"{path}.{name}", f"not a basis name of this ring {ring.basis_names}")
        coords[name] = _rational(raw, f"{path}.{name}")
    return ring.divisor(coords)


def _parse_bundle(value, path: str, ring: SurfaceRing, depth: int = 0) -> BundleExpr:
    # this parser, bundles._lines and the report's echo each recurse through
    # a bundle with up to two frames per level, so a bundle nested deeper
    # than a quarter of the recursion limit is refused here, before any of
    # them can exhaust it
    if depth > sys.getrecursionlimit() // 4:
        _fail(path, f"bundle nested deeper than {sys.getrecursionlimit() // 4} levels")
    obj = _object(value, path)
    kind = obj.pop("kind", None)
    if kind == "line":
        divisor = _parse_divisor(obj.pop("divisor", None), f"{path}.divisor", ring)
        _reject_unknown(obj, path)
        return Line(divisor)
    if kind == "sum":
        raw = _array(obj.pop("summands", None), f"{path}.summands")
        if not raw:
            _fail(f"{path}.summands", "sum needs at least one summand")
        _reject_unknown(obj, path)
        return Sum(
            *(
                _parse_bundle(x, f"{path}.summands[{i}]", ring, depth + 1)
                for i, x in enumerate(raw)
            )
        )
    if kind == "twist":
        inner = _parse_bundle(obj.pop("bundle", None), f"{path}.bundle", ring, depth + 1)
        divisor = _parse_divisor(obj.pop("divisor", None), f"{path}.divisor", ring)
        _reject_unknown(obj, path)
        return Twist(inner, divisor)
    if kind == "dual":
        inner = _parse_bundle(obj.pop("bundle", None), f"{path}.bundle", ring, depth + 1)
        _reject_unknown(obj, path)
        return Dual(inner)
    _fail(f"{path}.kind", f"expected one of line, sum, twist, dual; got {kind!r}")


def _parse_assertions(value, path: str) -> Assertions:
    obj = _object(value, path)
    flags = {}
    for name in (f.name for f in fields(Assertions)):
        raw = obj.pop(name, False)
        if not isinstance(raw, bool):
            _fail(f"{path}.{name}", f"expected true or false, got {raw!r}")
        flags[name] = raw
    _reject_unknown(obj, path)
    return Assertions(**flags)


def _parse_sweep(value, path: str) -> SweepConfig:
    obj = _object(value, path)
    kwargs = {}
    ranks = _array(obj.pop("ranks", None), f"{path}.ranks")
    kwargs["ranks"] = tuple(_int(x, f"{path}.ranks[{i}]", 2) for i, x in enumerate(ranks))
    if "epsilons" in obj:
        eps = _array(obj.pop("epsilons"), f"{path}.epsilons")
        kwargs["epsilons"] = tuple(_real(x, f"{path}.epsilons[{i}]") for i, x in enumerate(eps))
    for name, minimum in INT_MINIMUMS.items():
        if name in obj:
            kwargs[name] = _int(obj.pop(name), f"{path}.{name}", minimum)
    for name in ("tol", "threshold"):
        if name in obj:
            kwargs[name] = _real(obj.pop(name), f"{path}.{name}")
    if "mode" in obj:
        kwargs["mode"] = _string(obj.pop("mode"), f"{path}.mode")
    _reject_unknown(obj, path)
    try:
        return SweepConfig(**kwargs)
    except InvalidInputError as exc:
        _fail(path, str(exc))


def _parse_curves(value, path: str, ring: SurfaceRing) -> tuple[CohClass, ...]:
    raw = _array(value, path)
    return tuple(_parse_divisor(x, f"{path}[{i}]", ring) for i, x in enumerate(raw))


def _ringless(parse, *args):
    """Adapt a parser that does not read the ring to the _KEYS signature."""
    return lambda value, path, ring: parse(value, path, *args)


def _ring_doc(ring: SurfaceRing) -> dict:
    return {"basis": list(ring.basis_names), "pairing": [list(row) for row in ring.pairing]}


def _divisor_doc(d: CohClass) -> dict:
    return dict(zip(d.ring.basis_names, d.deg2))


def _bundle_doc(expr: BundleExpr) -> dict:
    if isinstance(expr, Line):
        return {"kind": "line", "divisor": _divisor_doc(expr.divisor)}
    if isinstance(expr, Sum):
        return {"kind": "sum", "summands": [_bundle_doc(x) for x in expr.summands]}
    if isinstance(expr, Twist):
        bundle, divisor = _bundle_doc(expr.bundle), _divisor_doc(expr.divisor)
        return {"kind": "twist", "bundle": bundle, "divisor": divisor}
    return {"kind": "dual", "bundle": _bundle_doc(expr.bundle)}


def _sweep_doc(sweep: SweepConfig) -> dict:
    # threads and batch_size are execution-plan knobs that never change the
    # results, so they are left out of the echo to keep reports byte-identical
    # across schedules
    doc = asdict(sweep)
    del doc["threads"], doc["batch_size"]
    return doc


def _as_is(value):
    return value


# every top-level key as (key, parser(value, path, ring), required, echo), in
# the order keys are read; ring comes first because bundle, divisor and
# curves are read in its basis.  echo(value) is the key's entry in a
# report's inputs; csv_path, which names an output file, has none
_KEYS = (
    ("ring", _ringless(_parse_ring), True, _ring_doc),
    ("bundle", _parse_bundle, True, _bundle_doc),
    ("assertions", _ringless(_parse_assertions), False, asdict),
    ("divisor", _parse_divisor, True, _divisor_doc),
    ("curves", _parse_curves, False, lambda curves: [_divisor_doc(c) for c in curves]),
    ("sweep", _ringless(_parse_sweep), True, _sweep_doc),
    ("r", _ringless(_int, 3), True, _as_is),
    ("a", _ringless(_rational), True, _as_is),
    ("omega_sq", _ringless(_rational), True, _as_is),
    ("samples", _ringless(_int, 1), False, _as_is),
    ("seed", _ringless(_int, 0), False, _as_is),
    ("csv_path", _ringless(_string), False, None),
)


def _inputs_doc(cfg: RunConfig, keys: tuple[str, ...]) -> dict:
    """A report's inputs: the echo of each of keys, the keys cfg's command accepts."""
    return {key: echo(getattr(cfg, key)) for key, _, _, echo in _KEYS if key in keys and echo}


def config_from_mapping(document: dict) -> RunConfig:
    """Validate an already-deserialized config object into a RunConfig."""
    from .cli import COMMANDS  # cli imports this module, so import at call time

    obj = _object(document, "")
    command = obj.pop("command", None)
    if not isinstance(command, str) or command not in COMMANDS:
        _fail("command", f"expected one of {', '.join(COMMANDS)}; got {command!r}")
    spec = COMMANDS[command]

    out_path = obj.pop("output_path", None)
    if out_path is not None:
        _string(out_path, "output_path")

    fields = {"command": command, "output_path": out_path}
    for key, parse, required, _ in _KEYS:
        if key not in spec.keys:
            continue
        if key in obj:
            fields[key] = parse(obj.pop(key), key, fields.get("ring"))
        elif required:
            _fail(key, f"required for command {command}")

    _reject_unknown(obj, "")
    return RunConfig(**fields)


def decode_json(document: str | bytes, where: str = ""):
    """The value of a JSON document, bytes read as UTF-8; where prefixes any ConfigError."""
    try:
        return json.loads(document if isinstance(document, str) else document.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{where}malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8 (UnicodeDecodeError is a ValueError), an
        # integer literal past Python's int-from-str digit limit, or nesting
        # deeper than the decoder recurses
        raise ConfigError(f"{where}cannot decode JSON: {exc}") from exc


def parse_config(document: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    return config_from_mapping(decode_json(document))
