"""Command-line front end.

Reads a JSON config (see config.py), dispatches to the library, and prints
one canonical-JSON report document to stdout; a one-line human summary goes
to stderr.  Flags mirror config keys and take precedence over the file.
Exit status: 0 when the command's check passed, 1 when it ran but failed,
2 for config errors, 3 for domain errors inside a command and for results
too long to print.  The AMPLE_SEED environment variable, when set,
overrides the seed of seed-consuming commands so CI can shuffle runs
without editing configs.

Every command is one entry of the COMMANDS table: its help line, the config
keys it accepts, its flags (each names the config key it writes), its runner
and its summary line; an absent key takes its RunConfig field's default.
The argument parser, flag merging, config parsing, the AMPLE_SEED override,
dispatch and the summary are all loops over that table, so adding a command
means writing its runner and adding one entry.  A report's inputs echo the
command's config keys as config._KEYS says, and a sweep's per-configuration
rows are its ConfigResults as dataclass documents.  Runners call the library
by its module-level names here, looked up at call time, so a replacement
installed on this module (a tracer, a test double) is the one called.  The
exact layer's names are imported with this module.  The sweep runners
(run_gap_sweep, run_griffiths_sweep, run_lagrange_check, export_histograms),
like every name that the package's _LAZY gives to sweep, are resolved by the
module's __getattr__ on first use, which imports sweep and numpy; exact
commands therefore never load the floating-point layer.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

from . import _LAZY, __version__
from .bundles import chern_of
from .config import MODES, RunConfig, config_from_mapping, decode_json
from .config import _divisor_doc, _inputs_doc, _ring_doc
from .criteria import (
    build_counterexample,
    check_criterion,
    check_rank2_criterion,
    epsilon_choice,
    nakai_check,
)
from .errors import AmpleError, ConfigError
from .report import render

# the "sweep" entries of _LAZY are module attributes that __getattr__ imports
# from sweep, and with it numpy, on first use; a bare global lookup never
# reaches __getattr__, so runners read them off _module
_module = sys.modules[__name__]


def __getattr__(name: str):
    if _LAZY.get(name) != "sweep":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sweep

    value = globals()[name] = getattr(sweep, name)
    return value


EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_ERROR = 3

_PASS_VERDICTS = ("pass", "hypotheses-satisfied")


# Runners: cfg -> (results, verdict, warnings).  A runner raises AmpleError
# for a domain error inside the command; run() turns it into an error report.


def _criterion(cfg: RunConfig, criterion) -> tuple[dict, str, list[str]]:
    # the results are the report's fields but the verdict, plus c1, with
    # each hypothesis marked asserted or unknown
    cd = chern_of(cfg.bundle)
    results = dict(vars(criterion(cd, cfg.assertions)))
    verdict = results.pop("verdict")
    results["c1"] = _divisor_doc(cd.c1)
    results["assertions"] = {
        name: ("asserted" if flag else "unknown") for name, flag in vars(cfg.assertions).items()
    }
    missing = cfg.assertions.missing()
    warnings = ["unverified hypotheses: " + ", ".join(missing)] if missing else []
    return results, verdict, warnings


def _nakai(cfg: RunConfig) -> tuple[dict, str, list[str]]:
    results = dict(vars(nakai_check(cfg.divisor, list(cfg.curves))))
    passed, warnings = results.pop("passed"), results.pop("warnings")
    return results, ("pass" if passed else "fail"), list(warnings)


def _counterexample(cfg: RunConfig) -> tuple[dict, str, list[str]]:
    ce = build_counterexample(cfg.r, cfg.a)
    results = {
        "ring": _ring_doc(ce.ring),
        "rank": ce.chern.rank,
        "c1_sq": ce.chern.c1_sq_value,
        "c2": ce.chern.c2_value,
        "slopes": list(ce.slopes),
        "identities": [{**vars(chk), "holds": chk.holds} for chk in ce.identities],
    }
    return results, ("pass" if ce.all_hold() else "fail"), []


def _epsilon(cfg: RunConfig) -> tuple[dict, str, list[str]]:
    cd = chern_of(cfg.bundle)
    value = epsilon_choice(cd, cfg.omega_sq)
    results = {
        "rank": cd.rank,
        "c1_sq": cd.c1_sq_value,
        "c2": cd.c2_value,
        "epsilon": value,
    }
    warnings = []
    if value <= 0:
        warnings.append(
            "criterion combination is nonpositive; the value is not a usable error budget"
        )
    return results, "pass", warnings


def _sweep(cfg: RunConfig, sweep, value_key: str, **extra) -> tuple[dict, str, list[str]]:
    res = sweep(cfg.sweep)
    if cfg.csv_path:
        _module.export_histograms(res, cfg.csv_path)
    return {**_sweep_results(res, value_key), **extra}, ("pass" if res.passed else "fail"), []


def _sweep_results(res, value_key: str) -> dict:
    configs = []
    for c in res.results:
        doc = asdict(c)
        doc["min"], doc["mean"] = doc.pop("min_value"), doc.pop("mean_value")
        doc["worst"] = {key: doc["worst"][key] for key in ("seed", "value", "v", "source")}
        configs.append(doc)
    return {value_key: res.min_value, "residual_max": res.residual_max, "configs": configs}


def _lagrange(cfg: RunConfig) -> tuple[dict, str, list[str]]:
    results = asdict(_module.run_lagrange_check(cfg.samples, cfg.seed))
    return results, ("pass" if results.pop("passed") else "fail"), []


class Flag(NamedTuple):
    """A command-line flag and the config key it writes.

    A dotted key such as "sweep.samples" names a key inside the sweep
    object; options go to argparse's add_argument.
    """

    name: str
    key: str
    options: dict


@dataclass(frozen=True)
class Command:
    """One entry of the command table."""

    help: str
    keys: tuple[str, ...]  # config keys accepted besides command and output_path
    run: Callable[[RunConfig], tuple[dict, str, list[str]]]
    summary: str  # str.format template over the report's command, verdict, results
    flags: tuple[Flag, ...] = ()


# every command takes --config and --out
_OUT = Flag("--out", "output_path", dict(metavar="PATH", help="also write the report to this file"))

_SWEEP_FLAGS = (
    Flag("--samples", "sweep.samples", dict(type=int, metavar="N", help="samples per configuration")),
    Flag("--seed", "sweep.seed", dict(type=int, metavar="S", help="base seed")),
    Flag("--restarts", "sweep.restarts", dict(type=int, metavar="K", help="adversarial search restarts")),
    Flag("--threads", "sweep.threads", dict(type=int, metavar="T", help="parallel workers")),
    Flag("--batch-size", "sweep.batch_size", dict(type=int, metavar="B", help="samples per batch")),
    Flag("--mode", "sweep.mode", dict(choices=MODES, help="sampler mode")),
    Flag("--csv", "csv_path", dict(metavar="PATH", help="export per-config histograms as CSV")),
)

# Where a runner takes a library function it is wrapped in a lambda, so the
# function is looked up in this module when the command runs and a
# replacement installed here (a tracer, a test double) is the one called.
COMMANDS = {
    "check": Command(
        "evaluate the higher-rank numerical criterion on exact Chern data",
        ("ring", "bundle", "assertions"),
        lambda cfg: _criterion(cfg, check_criterion),
        "{command}: {verdict} (lubke_gap = {results[lubke_gap]})",
    ),
    "st-check": Command(
        "evaluate the rank-2 Schneider-Tancredi criterion",
        ("ring", "bundle", "assertions"),
        lambda cfg: _criterion(cfg, check_rank2_criterion),
        "{command}: {verdict} (lubke_gap = {results[lubke_gap]})",
    ),
    "nakai": Command(
        "finite-list positivity check for a divisor class",
        ("ring", "divisor", "curves"),
        _nakai,
        "nakai: {verdict} (self-intersection = {results[self_intersection]})",
    ),
    "counterexample": Command(
        "build the rank-r boundary family and verify its identities",
        ("r", "a"),
        _counterexample,
        "counterexample: {verdict} (c1_sq = {results[c1_sq]}, c2 = {results[c2]})",
        flags=(
            Flag("-r", "r", dict(type=int, metavar="RANK", help="rank, at least 3")),
            Flag("-a", "a", dict(metavar="RAT", help="positive rational parameter, e.g. 2 or 7/3")),
        ),
    ),
    "verify-lemma": Command(
        "Monte Carlo verification of the pointwise curvature inequality",
        ("sweep", "csv_path"),
        lambda cfg: _sweep(cfg, _module.run_gap_sweep, "min_gap", threshold=cfg.sweep.threshold),
        "verify-lemma: {verdict} (min gap = {results[min_gap]:.6g})",
        flags=_SWEEP_FLAGS,
    ),
    "griffiths": Command(
        "Monte Carlo minimum of the curvature form's smallest eigenvalue",
        ("sweep", "csv_path"),
        lambda cfg: _sweep(cfg, _module.run_griffiths_sweep, "min_eigenvalue"),
        "griffiths: {verdict} (min eigenvalue = {results[min_eigenvalue]:.6g})",
        flags=_SWEEP_FLAGS,
    ),
    "lagrange": Command(
        "cross-check the closed-form constrained maximum against iteration",
        ("samples", "seed"),
        _lagrange,
        "lagrange: {verdict} (max |closed - numeric| = {results[max_abs_diff]:.3e})",
        flags=(
            Flag("--samples", "samples", dict(type=int, metavar="N", help="number of random instances")),
            Flag("--seed", "seed", dict(type=int, metavar="S", help="stream seed")),
        ),
    ),
    "epsilon": Command(
        "exact error-budget parameter from Chern data and the omega^2 integral",
        ("ring", "bundle", "omega_sq"),
        _epsilon,
        "epsilon: {results[epsilon]}",
    ),
}


def _error_results(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Execute one parsed config; returns (exit status, report document)."""
    spec = COMMANDS[cfg.command]
    inputs = _inputs_doc(cfg, spec.keys)
    try:
        results, verdict, warnings = spec.run(cfg)
    except AmpleError as exc:
        results, verdict, warnings = _error_results(exc), "error", []
    report = {
        "command": cfg.command,
        "inputs": inputs,
        "results": results,
        "verdict": verdict,
        "warnings": warnings,
        "version": __version__,
    }
    if verdict == "error":
        return EXIT_ERROR, report
    return (EXIT_PASS if verdict in _PASS_VERDICTS else EXIT_FAIL), report


def _summary(report: dict) -> str:
    if report["verdict"] == "error":
        err = report["results"]["error"]
        return f"{report['command']}: error ({err['type']}: {err['message']})"
    return COMMANDS[report["command"]].summary.format(**report)


def _load_document(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    data = decode_json(raw, f"{path}: ")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def _set_key(doc: dict, key: str, value) -> None:
    head, _, rest = key.partition(".")
    if rest:
        inner = doc.setdefault(head, {})
        if not isinstance(inner, dict):
            raise ConfigError(f"{head}: expected an object")
        inner[rest] = value
    else:
        doc[key] = value


def _apply_seed_env(cfg: RunConfig) -> tuple[RunConfig, list[str]]:
    """AMPLE_SEED overrides the key that the command's --seed flag writes."""
    raw = os.environ.get("AMPLE_SEED")
    if raw is None:
        return cfg, []
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"AMPLE_SEED must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ConfigError(f"AMPLE_SEED must be >= 0, got {seed}")
    for flag in COMMANDS[cfg.command].flags:
        if flag.name == "--seed":
            head, _, rest = flag.key.partition(".")
            value = replace(getattr(cfg, head), **{rest: seed}) if rest else seed
            return replace(cfg, **{head: value}), [f"seed overridden by AMPLE_SEED={seed}"]
    return cfg, []


def _build_parser():
    # imported here: config parsing imports this module for COMMANDS and
    # should not pay for argparse, which only main() needs
    import argparse

    parser = argparse.ArgumentParser(
        prog="ample",
        description="Ampleness criteria for bundles on surfaces: exact checks and Monte Carlo curvature verification.",
    )
    parser.add_argument("--version", action="version", version=f"ample {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        for flag in (_OUT, *spec.flags):
            p.add_argument(flag.name, dest=flag.key, **flag.options)
    return parser


def _merge_flags(doc: dict, args) -> dict:
    command = args.command
    if "command" in doc and doc["command"] != command:
        raise ConfigError(
            f"config file says command {doc['command']!r} but the CLI invoked {command!r}"
        )
    doc["command"] = command
    for flag in (_OUT, *COMMANDS[command].flags):
        value = getattr(args, flag.key)
        if value is not None:
            _set_key(doc, flag.key, value)
    return doc


def _check_writable(cfg: RunConfig) -> None:
    """Fail before the run when an output file cannot be opened or when the
    report would overwrite the histograms' file.  Each file that was missing,
    which opening it created, is removed again, through a link its target."""
    paths = {key: getattr(cfg, key) for key in ("output_path", "csv_path") if getattr(cfg, key)}
    missing = {os.path.realpath(path) for path in paths.values() if not os.path.exists(path)}
    try:
        for key, path in paths.items():
            try:
                open(path, "a", encoding="utf-8").close()
            except OSError as exc:
                raise ConfigError(f"cannot write {path}: {exc.strerror}", path=key) from exc
        if len(paths) == 2 and os.path.samefile(*paths.values()):
            raise ConfigError(f"{cfg.csv_path} names the same file as output_path", path="csv_path")
    finally:
        for path in missing:
            if os.path.exists(path):
                os.remove(path)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _load_document(args.config)
        doc = _merge_flags(doc, args)
        cfg = config_from_mapping(doc)
        cfg, env_warnings = _apply_seed_env(cfg)
        _check_writable(cfg)
    except ConfigError as exc:
        sys.stderr.write(json.dumps(_error_results(exc)) + "\n")
        return EXIT_CONFIG

    code, report = run(cfg)
    report["warnings"] = env_warnings + report["warnings"]
    try:
        text = render(report)
    except ValueError as exc:
        # a result render cannot print: an integer past Python's int-to-str
        # digit limit, which a product of inputs under it can reach
        code = EXIT_ERROR
        report.update(results=_error_results(exc), verdict="error", warnings=env_warnings)
        try:
            text = render(report)
        except ValueError:
            # the echo of the inputs is what cannot print; leave it out
            report.update(inputs={}, warnings=[*env_warnings, "inputs left out: too long to print"])
            text = render(report)
    sys.stdout.write(text)
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    sys.stderr.write(_summary(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
