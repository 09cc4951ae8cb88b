"""Ampleness criteria for vector bundles on compact complex surfaces.

The exact layer (intersection, bundles, criteria, config, cli, report) needs
only the standard library.  The floating-point layer (curvature, spheremin,
sweep) needs numpy, so its public names are resolved by __getattr__ on
first access, which imports the module that defines the name: ``import
ample`` and every exact command leave numpy unloaded, and the first sweep
loads it.  _LAZY is the one list of those names and their modules: __all__
ends with it, and cli resolves its "sweep" entries.
"""

import importlib

from .bundles import BundleExpr, ChernData, Dual, Line, Sum, Twist, chern_of, is_semistable_split, rank_of, split_slopes
from .config import RunConfig, SweepConfig, config_from_mapping, parse_config
from .criteria import (
    Assertions,
    Counterexample,
    CriterionReport,
    NakaiReport,
    build_counterexample,
    check_criterion,
    check_rank2_criterion,
    epsilon_choice,
    lubke_coefficient,
    nakai_check,
)
from .errors import AmpleError, ConfigError, InconsistentStateError, InvalidInputError
from .intersection import CohClass, SurfaceRing, as_rational, intersect

# public names of the floating-point layer and the module defining each
_LAZY = {
    **dict.fromkeys(
        (
            "PointCurvature",
            "PointwiseGapResult",
            "chern_densities",
            "error_term_density",
            "gap_lower_bound",
            "griffiths_lower_bound",
            "lagrange_max",
            "lagrange_max_numeric",
            "lubke_constant",
            "pointwise_gap",
            "projectively_flat",
            "residuals",
            "sample_curvature",
            "unitary_conjugate",
            "validate",
            "wedge_density",
        ),
        "curvature",
    ),
    **dict.fromkeys(("MinGapResult", "griffiths_min", "min_gap_over_v"), "spheremin"),
    **dict.fromkeys(
        (
            "LagrangeCheckResult",
            "SweepResult",
            "export_histograms",
            "replay_worst",
            "run_gap_sweep",
            "run_griffiths_sweep",
            "run_lagrange_check",
        ),
        "sweep",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


__version__ = "0.8.0"

__all__ = [
    "AmpleError",
    "Assertions",
    "BundleExpr",
    "ChernData",
    "CohClass",
    "ConfigError",
    "Counterexample",
    "CriterionReport",
    "Dual",
    "InconsistentStateError",
    "InvalidInputError",
    "Line",
    "NakaiReport",
    "RunConfig",
    "Sum",
    "SurfaceRing",
    "SweepConfig",
    "Twist",
    "as_rational",
    "build_counterexample",
    "check_criterion",
    "check_rank2_criterion",
    "chern_of",
    "config_from_mapping",
    "epsilon_choice",
    "intersect",
    "is_semistable_split",
    "lubke_coefficient",
    "nakai_check",
    "parse_config",
    "rank_of",
    "split_slopes",
    "__version__",
    *_LAZY,
]
