from fractions import Fraction

import pytest

from ample.bundles import Dual, Line, Sum, Twist
from ample.config import config_from_mapping, parse_config
from ample.errors import ConfigError

RING = {"basis": ["L", "H"], "pairing": [["0", "1"], ["1", "-1"]]}


def check_doc(**extra):
    doc = {
        "command": "check",
        "ring": {"basis": ["h"], "pairing": [["1"]]},
        "bundle": {
            "kind": "sum",
            "summands": [
                {"kind": "line", "divisor": {"h": "2"}},
                {"kind": "line", "divisor": {"h": 1}},
            ],
        },
    }
    doc.update(extra)
    return doc


def fails_at(doc, path_prefix):
    with pytest.raises(ConfigError) as exc:
        config_from_mapping(doc)
    assert str(exc.value).startswith(path_prefix), str(exc.value)


def test_minimal_check_config():
    cfg = config_from_mapping(check_doc())
    assert cfg.command == "check"
    assert isinstance(cfg.bundle, Sum)
    assert tuple(cfg.assertions.missing()) == ("c1_positive", "ample_on_curves", "semistable")
    line = cfg.bundle.summands[0]
    assert isinstance(line, Line)
    assert line.divisor.deg2 == (Fraction(2),)


def test_rationals_parse_in_either_form():
    cfg = config_from_mapping(
        {
            "command": "counterexample",
            "r": 4,
            "a": "14/6",
        }
    )
    assert cfg.a == Fraction(7, 3)
    cfg = config_from_mapping({"command": "counterexample", "r": 3, "a": 2})
    assert cfg.a == 2


def test_nested_bundle_kinds():
    doc = check_doc(
        bundle={
            "kind": "twist",
            "bundle": {
                "kind": "dual",
                "bundle": {
                    "kind": "sum",
                    "summands": [
                        {"kind": "line", "divisor": {"h": "1"}},
                        {"kind": "line", "divisor": {"h": "-1/2"}},
                    ],
                },
            },
            "divisor": {"h": "3"},
        }
    )
    cfg = config_from_mapping(doc)
    assert isinstance(cfg.bundle, Twist)
    assert isinstance(cfg.bundle.bundle, Dual)


def test_unknown_command():
    fails_at({"command": "audit"}, "command:")
    fails_at({}, "command:")


def test_missing_required_keys_name_the_path():
    fails_at({"command": "check"}, "ring:")
    fails_at({"command": "check", "ring": RING}, "bundle:")
    fails_at({"command": "nakai", "ring": RING}, "divisor:")
    fails_at({"command": "counterexample"}, "r:")
    fails_at({"command": "counterexample", "r": 3}, "a:")
    fails_at({"command": "verify-lemma"}, "sweep:")
    fails_at({"command": "epsilon", "ring": RING}, "bundle:")


def test_unknown_keys_are_rejected_at_their_path():
    fails_at(check_doc(extra=1), "extra:")
    fails_at(check_doc(ring={"basis": ["h"], "pairing": [["1"]], "extra": 1}), "ring.extra:")
    doc = check_doc()
    doc["bundle"]["summands"][0]["units"] = 2
    fails_at(doc, "bundle.summands[0].units:")
    fails_at(check_doc(assertions={"semistable": True, "stable": True}), "assertions.stable:")


def test_command_specific_keys_do_not_leak():
    fails_at(check_doc(samples=5), "samples:")
    fails_at({"command": "counterexample", "r": 3, "a": 1, "ring": RING}, "ring:")


def test_float_rationals_are_rejected():
    fails_at(check_doc(bundle={"kind": "line", "divisor": {"h": 1.5}}), "bundle.divisor.h:")
    fails_at({"command": "counterexample", "r": 3, "a": 1.5}, "a:")
    fails_at({"command": "counterexample", "r": 3, "a": "3/0"}, "a:")
    fails_at({"command": "counterexample", "r": True, "a": 1}, "r:")


def test_counterexample_rank_minimum():
    fails_at({"command": "counterexample", "r": 2, "a": 1}, "r:")


def test_divisor_names_must_come_from_the_ring():
    doc = check_doc(bundle={"kind": "line", "divisor": {"E": "1"}})
    fails_at(doc, "bundle.divisor.E:")
    fails_at(
        {"command": "nakai", "ring": RING, "divisor": {"L": "1"}, "curves": [{"F": "1"}]},
        "curves[0].F:",
    )


def test_pairing_must_be_square_and_symmetric():
    fails_at(check_doc(ring={"basis": ["a", "b"], "pairing": [["1"]]}), "ring:")
    fails_at(
        check_doc(ring={"basis": ["a", "b"], "pairing": [["0", "1"], ["2", "0"]]}),
        "ring:",
    )


def test_sweep_subconfig_paths():
    def sweep_doc(**extra):
        sweep = {"ranks": [2, 3]}
        sweep.update(extra)
        return {"command": "verify-lemma", "sweep": sweep}

    cfg = config_from_mapping(sweep_doc(samples=10, epsilons=[0, 0.1], mode="random"))
    assert cfg.sweep.ranks == (2, 3)
    assert cfg.sweep.samples == 10
    assert cfg.sweep.epsilons == (0.0, 0.1)
    fails_at(sweep_doc(samples=0), "sweep.samples:")
    fails_at(sweep_doc(ranks=[1]), "sweep.ranks[0]:")
    fails_at(sweep_doc(mode=3), "sweep.mode:")
    fails_at(sweep_doc(mode="adaptive"), "sweep:")
    fails_at(sweep_doc(tol="tight"), "sweep.tol:")
    fails_at(sweep_doc(cadence=5), "sweep.cadence:")
    fails_at({"command": "verify-lemma", "sweep": {"ranks": "all"}}, "sweep.ranks:")


def test_csv_path_only_for_sweep_commands():
    cfg = config_from_mapping(
        {"command": "verify-lemma", "sweep": {"ranks": [2]}, "csv_path": "h.csv"}
    )
    assert cfg.csv_path == "h.csv"
    fails_at({"command": "lagrange", "csv_path": "h.csv"}, "csv_path:")


def test_output_path_accepted_everywhere():
    cfg = config_from_mapping(check_doc(output_path="report.json"))
    assert cfg.output_path == "report.json"
    fails_at(check_doc(output_path=7), "output_path:")


def test_malformed_json_reports_position():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"command": "check",}')
    assert "line 1 column 21" in str(exc.value)


def test_json_nested_deeper_than_the_decoder_is_a_config_error():
    with pytest.raises(ConfigError) as exc:
        parse_config("[" * 100_000 + "]" * 100_000)
    assert str(exc.value).startswith("cannot decode JSON: ")


def test_parse_config_round_trip():
    cfg = parse_config('{"command": "counterexample", "r": 5, "a": "7/3"}')
    assert cfg.r == 5
    assert cfg.a == Fraction(7, 3)
