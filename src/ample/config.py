"""Config-document parsing for the command-line front end.

Configs are JSON objects.  Rationals are written as integers or "p/q"
strings (floats are rejected wherever exactness matters); divisor classes
are objects mapping basis names to rationals; bundles are nested objects
tagged by "kind".  Every key is checked: anything unknown for the active
command is an error naming the offending JSON path, so a typo cannot
silently fall back to a default.

Which top-level keys a command accepts, and its defaults, come from its
entry in the command table, cli.COMMANDS.  This module owns how each key is
parsed: _KEYS lists every key once, with its parser and whether it is
required, in the order keys are read.  A new command that only reuses
existing keys needs nothing here; a new key needs a RunConfig field and a
_KEYS row, plus an entry in cli._ECHO if the report should echo it: cli.run
leaves every key without one out of the report's inputs.  The integer
bounds of the sweep object come from sweep.INT_MINIMUMS, the table
SweepConfig checks too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .bundles import BundleExpr, Dual, Line, Sum, Twist
from .criteria import Assertions
from .errors import ConfigError, InvalidInputError
from .intersection import CohClass, SurfaceRing, as_rational
from .sweep import INT_MINIMUMS, SweepConfig


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
    samples: int | None = None
    seed: int | None = None
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


def _parse_bundle(value, path: str, ring: SurfaceRing) -> BundleExpr:
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
            *(_parse_bundle(x, f"{path}.summands[{i}]", ring) for i, x in enumerate(raw))
        )
    if kind == "twist":
        inner = _parse_bundle(obj.pop("bundle", None), f"{path}.bundle", ring)
        divisor = _parse_divisor(obj.pop("divisor", None), f"{path}.divisor", ring)
        _reject_unknown(obj, path)
        return Twist(inner, divisor)
    if kind == "dual":
        inner = _parse_bundle(obj.pop("bundle", None), f"{path}.bundle", ring)
        _reject_unknown(obj, path)
        return Dual(inner)
    _fail(f"{path}.kind", f"expected one of line, sum, twist, dual; got {kind!r}")


def _parse_assertions(value, path: str) -> Assertions:
    if value is None:
        return Assertions()
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


# every top-level key as (key, parser(value, path, ring), required), in the
# order keys are read; ring comes first because bundle, divisor and curves
# are read in its basis
_KEYS = (
    ("ring", _ringless(_parse_ring), True),
    ("bundle", _parse_bundle, True),
    ("assertions", _ringless(_parse_assertions), False),
    ("divisor", _parse_divisor, True),
    ("curves", _parse_curves, False),
    ("sweep", _ringless(_parse_sweep), True),
    ("r", _ringless(_int, 3), True),
    ("a", _ringless(_rational), True),
    ("omega_sq", _ringless(_rational), True),
    ("samples", _ringless(_int, 1), False),
    ("seed", _ringless(_int, 0), False),
    ("csv_path", _ringless(_string), False),
)


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

    fields = {"command": command, "output_path": out_path, **spec.defaults}
    for key, parse, required in _KEYS:
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
    except (UnicodeDecodeError, RecursionError) as exc:
        # bytes that are not UTF-8, or nesting deeper than the decoder recurses
        raise ConfigError(f"{where}cannot decode JSON: {exc}") from exc


def parse_config(document: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    return config_from_mapping(decode_json(document))
