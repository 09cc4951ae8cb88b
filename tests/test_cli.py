import json
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from ample import cli
from ample.bundles import _lines, chern_of, is_semistable_split
from ample.cli import main
from ample.config import config_from_mapping

SCHEMA = json.loads(
    resources.files("ample").joinpath("report.schema.json").read_text()
)

HYPERBOLIC = {"basis": ["L", "H"], "pairing": [["0", "1"], ["1", "0"]]}
P2 = {"basis": ["h"], "pairing": [["1"]]}

ALL_ASSERTED = {"c1_positive": True, "ample_on_curves": True, "semistable": True}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def invoke(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(capsys, argv, expect_code=None):
    code, out, err = invoke(capsys, argv)
    if expect_code is not None:
        assert code == expect_code, (code, out, err)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report, err


def split_bundle(*degrees):
    return {
        "kind": "sum",
        "summands": [{"kind": "line", "divisor": d} for d in degrees],
    }


def test_check_passes_with_all_assertions(capsys, tmp_path):
    # O(h)^3 asserts semistability, which its equal slopes confirm
    doc = {
        "ring": P2,
        "bundle": split_bundle({"h": "1"}, {"h": "1"}, {"h": "1"}),
        "assertions": ALL_ASSERTED,
    }
    code, report, err = report_of(
        capsys, ["check", "--config", write_config(tmp_path, doc)], expect_code=0
    )
    assert report["verdict"] == "hypotheses-satisfied"
    assert report["results"]["rank"] == 3
    assert report["results"]["lubke_coefficient"] == "12/5"
    assert report["results"]["lubke_gap"] == "9/5"
    assert report["warnings"] == []
    assert "hypotheses-satisfied" in err
    cfg = config_from_mapping(dict(doc, command="check"))
    assert is_semistable_split(_lines(cfg.bundle), chern_of(cfg.bundle).c1)


@pytest.mark.xfail(
    strict=True,
    reason="check trusts an asserted semistability that the bundle's own slopes refute",
)
def test_check_does_not_satisfy_a_semistability_its_slopes_refute():
    # O(2h) + O(h) + O(h) has slopes 8, 4 and 4 against det E = 4h
    doc = {
        "command": "check",
        "ring": P2,
        "bundle": split_bundle({"h": "2"}, {"h": "1"}, {"h": "1"}),
        "assertions": ALL_ASSERTED,
    }
    cfg = config_from_mapping(doc)
    assert not is_semistable_split(_lines(cfg.bundle), chern_of(cfg.bundle).c1)
    assert cli.run(cfg)[1]["verdict"] != "hypotheses-satisfied"


def test_the_readmes_check_example_asserts_what_its_slopes_confirm():
    # the first json block of the README is its check example: it asserts
    # semistability, so its lines must have equal slopes against det E
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    doc = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    cfg = config_from_mapping(dict(doc, command="check"))
    code, report = cli.run(cfg)
    assert (code, report["verdict"]) == (0, "hypotheses-satisfied")
    assert doc["assertions"]["semistable"]
    assert is_semistable_split(_lines(cfg.bundle), chern_of(cfg.bundle).c1)


def test_check_fails_on_the_boundary(capsys, tmp_path):
    doc = {
        "ring": HYPERBOLIC,
        "bundle": split_bundle({"L": "1"}, {"H": "1"}),
        "assertions": ALL_ASSERTED,
    }
    code, report, _ = report_of(
        capsys, ["check", "--config", write_config(tmp_path, doc)], expect_code=1
    )
    assert report["verdict"] == "numerically-failed"
    assert report["results"]["lubke_gap"] == "0"


def test_check_with_missing_assertions_warns(capsys, tmp_path):
    doc = {"ring": P2, "bundle": split_bundle({"h": "1"}, {"h": "1"})}
    code, report, _ = report_of(
        capsys, ["check", "--config", write_config(tmp_path, doc)], expect_code=1
    )
    assert report["verdict"] == "assertions-missing"
    assert any("unverified hypotheses" in w for w in report["warnings"])
    marks = report["results"]["assertions"]
    assert marks == {k: "unknown" for k in marks}


def test_counterexample_flags_only(capsys):
    code, report, _ = report_of(capsys, ["counterexample", "-r", "5", "-a", "7/3"], expect_code=0)
    assert report["verdict"] == "pass"
    assert report["results"]["rank"] == 5
    assert all(chk["holds"] for chk in report["results"]["identities"])
    slopes = set(report["results"]["slopes"])
    assert len(slopes) == 1


def test_nakai_detects_a_bad_curve(capsys, tmp_path):
    doc = {
        "ring": HYPERBOLIC,
        "divisor": {"L": "1", "H": "1"},
        "curves": [{"L": "1"}, {"L": "1", "H": "-1"}],
    }
    code, report, _ = report_of(
        capsys, ["nakai", "--config", write_config(tmp_path, doc)], expect_code=1
    )
    assert report["verdict"] == "fail"


def test_epsilon_command(capsys, tmp_path):
    doc = {"ring": P2, "bundle": split_bundle({"h": "3"}, {"h": "2"}), "omega_sq": "25"}
    code, report, _ = report_of(
        capsys, ["epsilon", "--config", write_config(tmp_path, doc)], expect_code=0
    )
    assert report["results"]["epsilon"] == "26/125"


def test_epsilon_rejects_nonpositive_volume(capsys, tmp_path):
    doc = {"ring": P2, "bundle": split_bundle({"h": "1"}, {"h": "1"}), "omega_sq": "0"}
    code, report, _ = report_of(
        capsys, ["epsilon", "--config", write_config(tmp_path, doc)], expect_code=3
    )
    assert report["verdict"] == "error"
    assert report["results"]["error"]["type"] == "InvalidInputError"


def test_config_errors_exit_2_without_a_report(capsys, tmp_path):
    code, out, err = invoke(capsys, ["check", "--config", write_config(tmp_path, {"ring": P2})])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("key, value", [("threshold", -1e-9), ("tol", 0)])
def test_a_negative_threshold_or_a_tol_of_zero_exits_2(capsys, tmp_path, key, value):
    doc = {"sweep": {"ranks": [2], key: value}}
    code, out, err = invoke(capsys, ["verify-lemma", "--config", write_config(tmp_path, doc)])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(f"sweep: {key} must be finite and ")


@pytest.mark.parametrize(
    "text",
    [b'{"command": "check", "ring": "\xff"}', b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "nested-too-deep"],
)
def test_config_that_is_not_json_text_exits_2(capsys, tmp_path, text):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    code, out, err = invoke(capsys, ["check", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["message"].startswith(f"{path}: cannot decode JSON: ")


@pytest.mark.parametrize(
    "argv, doc, path",
    [
        (
            ["epsilon"],
            {"ring": P2, "bundle": split_bundle({"h": "1"}, {"h": "1"}), "omega_sq": "1e5000"},
            "omega_sq",
        ),
        (
            ["check"],
            {"ring": {"basis": ["h"], "pairing": [["1E5000"]]}, "bundle": split_bundle({"h": "1"})},
            "ring.pairing[0][0]",
        ),
        (["counterexample", "-r", "3", "-a", "1e5000"], {}, "a"),
    ],
    ids=["epsilon", "check", "counterexample-flag"],
)
def test_rationals_in_exponent_notation_exit_2(capsys, tmp_path, argv, doc, path):
    # Fraction expands an exponent before Python's int-to-str digit limit
    # applies, so "1e5000" would parse and leave a report that cannot print
    code, out, err = invoke(capsys, [*argv, "--config", write_config(tmp_path, doc)])
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]["message"]
    assert message.startswith(f"{path}: exponent notation is not accepted")


def test_a_long_unparsable_rational_gives_a_short_config_error(capsys, tmp_path):
    doc = {"ring": P2, "bundle": split_bundle({"h": "1"}, {"h": "1"}), "omega_sq": "x" * 5000}
    code, out, err = invoke(capsys, ["epsilon", "--config", write_config(tmp_path, doc)])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("omega_sq: cannot parse rational from 'xxx")
    assert len(err) < 200


def test_a_result_past_the_digit_limit_exits_3_with_an_error_report(capsys, tmp_path):
    # inputs of 2501 digits give a c1^2 of 7501, past Python's 4300-digit
    # limit on int-to-str conversion
    big = "1" + "0" * 2500
    ring = {"basis": ["h"], "pairing": [[big]]}
    doc = {"ring": ring, "bundle": split_bundle({"h": big}, {"h": big})}
    code, report, err = report_of(
        capsys, ["check", "--config", write_config(tmp_path, doc)], expect_code=3
    )
    assert report["verdict"] == "error"
    assert report["results"]["error"]["type"] == "ValueError"
    assert report["inputs"]["ring"]["pairing"] == [[big]]
    assert err.startswith("check: error (ValueError: Exceeds the limit (4300 digits)")


def test_an_integer_literal_past_the_digit_limit_exits_2(capsys, tmp_path):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal past Python's 4300-digit limit; the text is put
    # together by hand, since json.dumps cannot print such an integer
    path = tmp_path / "config.json"
    path.write_text('{"command": "counterexample", "r": 3' + "0" * 5000 + ', "a": 1}')
    code, out, err = invoke(capsys, ["counterexample", "--config", str(path)])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert "cannot decode JSON: Exceeds the limit (4300 digits)" in error["message"]


def test_a_decimal_rational_too_long_to_print_exits_2(capsys, tmp_path):
    # 4299 digits either side of the point are each under the digit limit,
    # but they parse to an 8598-digit numerator that no report could echo
    omega_sq = "1" * 4299 + "." + "1" * 4299
    doc = {"ring": P2, "bundle": split_bundle({"h": "3"}, {"h": "2"}), "omega_sq": omega_sq}
    code, out, err = invoke(capsys, ["epsilon", "--config", write_config(tmp_path, doc)])
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]["message"]
    assert message.startswith("omega_sq: a rational with more than 4300 digits")


def test_an_error_report_whose_inputs_cannot_print_leaves_them_out(capsys, monkeypatch):
    # the exit-3 fallback re-renders the report; when the echo of the inputs
    # is what cannot print, it renders the error report without it
    def run_with_unprintable_inputs(cfg):
        return 0, {
            "command": cfg.command,
            "inputs": {"a": 10**5000},
            "results": {},
            "verdict": "pass",
            "warnings": [],
            "version": cli.__version__,
        }

    monkeypatch.setattr(cli, "run", run_with_unprintable_inputs)
    code, report, err = report_of(capsys, ["counterexample", "-r", "3", "-a", "1"], expect_code=3)
    assert report["inputs"] == {}
    assert report["verdict"] == "error"
    assert report["results"]["error"]["type"] == "ValueError"
    assert report["warnings"] == ["inputs left out: too long to print"]
    assert err.startswith("counterexample: error (ValueError: Exceeds the limit (4300 digits)")


def test_bundle_nested_past_the_walks_exits_2(tmp_path):
    # 984 duals is shallow enough for the JSON decoder but deep enough to
    # exhaust the recursion limit in a recursive walk of the bundle; run as
    # the command line runs, so that the test's own stack depth plays no part;
    # the text is put together by hand, since json.dumps would recurse as deep
    bundle = json.dumps(split_bundle({"h": "2"}, {"h": "1"}))
    bundle = '{"kind": "dual", "bundle": ' * 984 + bundle + "}" * 984
    path = tmp_path / "config.json"
    path.write_text(f'{{"command": "check", "ring": {json.dumps(P2)}, "bundle": {bundle}}}')
    proc = subprocess.run(
        [sys.executable, "-m", "ample", "check", "--config", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("bundle.bundle.")
    assert error["message"].endswith(": bundle nested deeper than 250 levels")


def test_unwritable_out_path_exits_2_before_the_run(capsys, tmp_path):
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = invoke(capsys, ["counterexample", "-r", "3", "-a", "2", "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["message"].startswith("output_path: cannot write ")


def test_unwritable_csv_path_exits_2_before_the_sweep(capsys, tmp_path, monkeypatch):
    calls = []
    sweep = cli.run_gap_sweep
    monkeypatch.setattr(cli, "run_gap_sweep", lambda cfg: calls.append(cfg) or sweep(cfg))
    path = write_config(tmp_path, {"sweep": {"ranks": [2], "samples": 2, "seed": 0}})
    csv_path = tmp_path / "missing" / "hist.csv"
    code, out, err = invoke(capsys, ["verify-lemma", "--config", path, "--csv", str(csv_path)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["message"].startswith("csv_path: cannot write ")
    # the report's file, opened before the histograms' failed, is not left
    out_path = tmp_path / "report.json"
    argv = ["verify-lemma", "--config", path, "--out", str(out_path), "--csv", str(csv_path)]
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert json.loads(err)["error"]["message"].startswith("csv_path: cannot write ")
    assert not out_path.exists()
    assert calls == []


def test_out_and_csv_naming_one_file_exit_2_before_the_sweep(capsys, tmp_path, monkeypatch):
    # by the flags and by the config keys, through a relative path and a
    # link; the report would otherwise overwrite the histograms
    calls = []
    sweep = cli.run_gap_sweep
    monkeypatch.setattr(cli, "run_gap_sweep", lambda cfg: calls.append(cfg) or sweep(cfg))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.json").symlink_to(tmp_path / "x.json")
    sweep_doc = {"ranks": [2], "samples": 2, "seed": 0}
    path = write_config(tmp_path, {"sweep": sweep_doc})
    for out, csv_path in (("x.json", "x.json"), (str(tmp_path / "x.json"), "./x.json"), ("x.json", "link.json")):
        code, out_text, err = invoke(capsys, ["verify-lemma", "--config", path, "--out", out, "--csv", csv_path])
        assert code == 2
        assert out_text == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith("csv_path: ") and "same file" in error["message"]
        # the check created x.json to open it, and removed it again; the
        # link is the user's and stays
        assert not (tmp_path / "x.json").exists()
        assert (tmp_path / "link.json").is_symlink()
    doc = {"output_path": "link.json", "csv_path": str(tmp_path / "x.json"), "sweep": sweep_doc}
    code, out_text, err = invoke(capsys, ["verify-lemma", "--config", write_config(tmp_path, doc, "keys.json")])
    assert code == 2
    assert out_text == ""
    assert json.loads(err)["error"]["message"].startswith("csv_path: ")
    assert not (tmp_path / "x.json").exists()
    # a file that was there before the check is kept as it was
    (tmp_path / "x.json").write_text("kept")
    code, _, _ = invoke(capsys, ["verify-lemma", "--config", path, "--out", "x.json", "--csv", "x.json"])
    assert code == 2
    assert (tmp_path / "x.json").read_text() == "kept"
    assert calls == []


def test_command_mismatch_between_flag_and_file(capsys, tmp_path):
    path = write_config(tmp_path, {"command": "check", "ring": P2})
    code, out, err = invoke(capsys, ["nakai", "--config", path])
    assert code == 2
    assert "check" in json.loads(err)["error"]["message"]


def test_verify_lemma_small_sweep(capsys, tmp_path):
    doc = {
        "sweep": {
            "ranks": [2, 3],
            "epsilons": [0, 0.1],
            "samples": 25,
            "seed": 11,
            "restarts": 2,
            "random_vectors": 3,
            "iterations": 30,
        }
    }
    code, report, err = report_of(
        capsys, ["verify-lemma", "--config", write_config(tmp_path, doc)], expect_code=0
    )
    assert report["verdict"] == "pass"
    assert report["results"]["min_gap"] >= -1e-9
    assert len(report["results"]["configs"]) == 4
    # a gap sweep's worst value is the polish's, or the screened value of
    # its worst sample where the polish finds nothing lower; the screen
    # then names the bound's extremal vector, the lowest of the three here
    for c in report["results"]["configs"]:
        assert c["worst"]["source"] in ("extremal-vector", "adversarial")
        assert c["min"] >= c["min_bound"] - 1e-9


def test_sweep_reports_are_byte_identical_across_runs_and_threads(capsys, tmp_path):
    doc = {
        "sweep": {
            "ranks": [2, 3],
            "samples": 20,
            "seed": 4,
            "restarts": 2,
            "random_vectors": 2,
            "iterations": 25,
        }
    }
    path = write_config(tmp_path, doc)
    _, first, _ = invoke(capsys, ["verify-lemma", "--config", path])
    _, second, _ = invoke(capsys, ["verify-lemma", "--config", path])
    assert first == second
    _, threaded, _ = invoke(capsys, ["verify-lemma", "--config", path, "--threads", "3"])
    assert threaded == first
    _, rebatched, _ = invoke(capsys, ["verify-lemma", "--config", path, "--batch-size", "7"])
    assert rebatched == first


def test_flag_overrides_beat_the_config_file(capsys, tmp_path):
    doc = {"sweep": {"ranks": [2], "samples": 50, "seed": 1}}
    path = write_config(tmp_path, doc)
    code, report, _ = report_of(
        capsys, ["verify-lemma", "--config", path, "--samples", "5", "--seed", "9"],
        expect_code=0,
    )
    assert report["inputs"]["sweep"]["samples"] == 5
    assert report["inputs"]["sweep"]["seed"] == 9


def test_ample_seed_environment_override(capsys, tmp_path, monkeypatch):
    path = write_config(tmp_path, {"sweep": {"ranks": [2], "samples": 5, "seed": 1}})
    monkeypatch.setenv("AMPLE_SEED", "123")
    code, report, _ = report_of(capsys, ["verify-lemma", "--config", path], expect_code=0)
    assert report["inputs"]["sweep"]["seed"] == 123
    assert any("AMPLE_SEED" in w for w in report["warnings"])
    monkeypatch.setenv("AMPLE_SEED", "7.5")
    code, out, err = invoke(capsys, ["verify-lemma", "--config", path])
    assert code == 2


def test_lagrange_defaults_and_flags(capsys, tmp_path):
    code, report, _ = report_of(capsys, ["lagrange", "--samples", "50", "--seed", "2"], expect_code=0)
    assert report["inputs"] == {"samples": 50, "seed": 2}
    assert report["results"]["max_abs_diff"] <= 1e-6
    path = write_config(tmp_path, {"command": "lagrange"})
    code, report, _ = report_of(capsys, ["lagrange", "--config", path], expect_code=0)
    assert report["inputs"] == {"samples": 1000, "seed": 0}
    assert report["results"]["samples"] == 1000 and report["results"]["seed"] == 0


def test_griffiths_projectively_flat_mode(capsys, tmp_path):
    doc = {"sweep": {"ranks": [2, 5], "mode": "projectively-flat", "samples": 3, "seed": 0}}
    code, report, _ = report_of(
        capsys, ["griffiths", "--config", write_config(tmp_path, doc)], expect_code=0
    )
    assert report["verdict"] == "pass"
    mins = [c["min"] for c in report["results"]["configs"]]
    assert mins[0] == pytest.approx(0.5, abs=1e-9)
    assert mins[1] == pytest.approx(0.2, abs=1e-9)


def test_out_file_matches_stdout(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = invoke(capsys, ["counterexample", "-r", "3", "-a", "1", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == out


def test_csv_flag_writes_histograms(capsys, tmp_path):
    doc = {"sweep": {"ranks": [2], "samples": 10, "seed": 0, "iterations": 20}}
    csv_path = tmp_path / "hist.csv"
    code, report, _ = report_of(
        capsys,
        [
            "verify-lemma",
            "--config",
            write_config(tmp_path, doc),
            "--csv",
            str(csv_path),
        ],
        expect_code=0,
    )
    text = csv_path.read_text()
    assert text.startswith("rank,epsilon,bin_lo,bin_hi,count")


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ample", "counterexample", "-r", "3", "-a", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    jsonschema.validate(report, SCHEMA)
    assert report["results"]["c1_sq"] == "12"
    assert report["results"]["c2"] == "5"
    assert proc.stderr.strip().startswith("counterexample: pass")


def test_rationals_render_as_strings_everywhere(capsys):
    _, out, _ = invoke(capsys, ["counterexample", "-r", "4", "-a", "1/2"])
    report = json.loads(out)
    assert report["inputs"]["a"] == "1/2"
    assert all(isinstance(s, str) for s in report["results"]["slopes"])
    assert '"slopes":["3/2","3/2","3/2","3/2"]' in out


# Full stdout, stderr summary and exit code of each exact command on one fixed
# config.  These reports are exact rational arithmetic, so the bytes are the
# same on every machine; any change to dispatch, rendering or summaries shows.
GOLDEN = {
    "check": (
        {
            "ring": P2,
            "bundle": split_bundle({"h": "2"}, {"h": "1"}, {"h": "1"}),
            "assertions": ALL_ASSERTED,
        },
        0,
        '{"command":"check","inputs":{"assertions":{"ample_on_curves":true,'
        '"c1_positive":true,"semistable":true},"bundle":{"kind":"sum","summands":'
        '[{"divisor":{"h":"2"},"kind":"line"},{"divisor":{"h":"1"},"kind":"line"},'
        '{"divisor":{"h":"1"},"kind":"line"}]},"ring":{"basis":["h"],"pairing":[["1"]]}},'
        '"results":{"assertions":{"ample_on_curves":"asserted","c1_positive":"asserted",'
        '"semistable":"asserted"},"c1":{"h":"4"},"c1_sq":"16","c1sq_minus_c2":"11",'
        '"c2":"5","lubke_coefficient":"12/5","lubke_gap":"4","rank":3,"st_gap":null},'
        '"verdict":"hypotheses-satisfied","version":"0.8.0","warnings":[]}\n',
        "check: hypotheses-satisfied (lubke_gap = 4)\n",
    ),
    "st-check": (
        {
            "ring": P2,
            "bundle": split_bundle({"h": "2"}, {"h": "1"}),
            "assertions": {"semistable": True},
        },
        1,
        '{"command":"st-check","inputs":{"assertions":{"ample_on_curves":false,'
        '"c1_positive":false,"semistable":true},"bundle":{"kind":"sum","summands":'
        '[{"divisor":{"h":"2"},"kind":"line"},{"divisor":{"h":"1"},"kind":"line"}]},'
        '"ring":{"basis":["h"],"pairing":[["1"]]}},"results":{"assertions":'
        '{"ample_on_curves":"unknown","c1_positive":"unknown","semistable":"asserted"},'
        '"c1":{"h":"3"},"c1_sq":"9","c1sq_minus_c2":"7","c2":"2","lubke_coefficient":"2",'
        '"lubke_gap":"5","rank":2,"st_gap":"5"},"verdict":"assertions-missing",'
        '"version":"0.8.0","warnings":["unverified hypotheses: c1_positive, ample_on_curves"]}\n',
        "st-check: assertions-missing (lubke_gap = 5)\n",
    ),
    "nakai": (
        {
            "ring": HYPERBOLIC,
            "divisor": {"L": "1", "H": "1"},
            "curves": [{"L": "1"}, {"L": "1", "H": "-1"}],
        },
        1,
        '{"command":"nakai","inputs":{"curves":[{"H":"0","L":"1"},{"H":"-1","L":"1"}],'
        '"divisor":{"H":"1","L":"1"},"ring":{"basis":["L","H"],"pairing":[["0","1"],'
        '["1","0"]]}},"results":{"curve_degrees":["1","0"],"note":"necessary conditions '
        'over the supplied curve list; not a full ampleness decision","self_intersection":"2"},'
        '"verdict":"fail","version":"0.8.0","warnings":[]}\n',
        "nakai: fail (self-intersection = 2)\n",
    ),
    "counterexample": (
        {"r": 4, "a": "1/2"},
        0,
        '{"command":"counterexample","inputs":{"a":"1/2","r":4},"results":{"c1_sq":"6",'
        '"c2":"5/2","identities":[{"actual":"6","expected":"6","holds":true,"name":"c1_sq"},'
        '{"actual":"5/2","expected":"5/2","holds":true,"name":"c2"},{"actual":"0",'
        '"expected":"0","holds":true,"name":"lubke_gap"},{"actual":"0","expected":"0",'
        '"holds":true,"name":"slope_spread"}],"rank":4,"ring":{"basis":["L","H"],'
        '"pairing":[["0","1/2"],["1/2","1/3"]]},"slopes":["3/2","3/2","3/2","3/2"]},'
        '"verdict":"pass","version":"0.8.0","warnings":[]}\n',
        "counterexample: pass (c1_sq = 6, c2 = 5/2)\n",
    ),
    "epsilon": (
        {"ring": P2, "bundle": split_bundle({"h": "3"}, {"h": "2"}), "omega_sq": "25"},
        0,
        '{"command":"epsilon","inputs":{"bundle":{"kind":"sum","summands":[{"divisor":'
        '{"h":"3"},"kind":"line"},{"divisor":{"h":"2"},"kind":"line"}]},"omega_sq":"25",'
        '"ring":{"basis":["h"],"pairing":[["1"]]}},"results":{"c1_sq":"25","c2":"6",'
        '"epsilon":"26/125","rank":2},"verdict":"pass","version":"0.8.0","warnings":[]}\n',
        "epsilon: 26/125\n",
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_exact_command_output_is_pinned(capsys, tmp_path, command):
    doc, expect_code, expect_out, expect_err = GOLDEN[command]
    code, out, err = invoke(capsys, [command, "--config", write_config(tmp_path, doc)])
    assert (code, out, err) == (expect_code, expect_out, expect_err)


# Runs in a fresh interpreter: each GOLDEN document through the library path
# (config_from_mapping -> cli.run -> render) and through `python -m ample`,
# then one small sweep; prints the reports and which float-layer modules
# were loaded before and after the sweep.
FRESH_CHILD = """
import contextlib, io, json, runpy, sys
from ample import cli
from ample.config import config_from_mapping
from ample.report import render

FLOAT_LAYER = ("numpy", "ample.sweep", "ample.spheremin", "ample.curvature")
POOLS = ("multiprocessing", "concurrent.futures")
jobs = json.loads(sys.stdin.read())
out = {"library": {}, "module": {}}
for command, doc, path in jobs:
    out["library"][command] = render(cli.run(config_from_mapping({"command": command, **doc}))[1])
    sys.argv = ["ample", command, "--config", path]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            runpy.run_module("ample", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    out["module"][command] = [code, stdout.getvalue(), stderr.getvalue()]
out["exact"] = [m for m in FLOAT_LAYER + POOLS if m in sys.modules]
# one job, so one worker however many threads are asked for
sweep = {"command": "verify-lemma", "sweep": {"ranks": [2], "samples": 4, "iterations": 5, "threads": 2}}
out["sweep_verdict"] = cli.run(config_from_mapping(sweep))[1]["verdict"]
out["after_sweep"] = [m for m in FLOAT_LAYER + POOLS if m in sys.modules]
print(json.dumps(out))
"""


def test_exact_commands_never_load_the_float_layer(tmp_path):
    jobs = [
        (command, doc, write_config(tmp_path, doc, f"{command}.json"))
        for command, (doc, *_) in sorted(GOLDEN.items())
    ]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CHILD], input=json.dumps(jobs), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    for command, (_, code, stdout, stderr) in GOLDEN.items():
        assert out["library"][command] == stdout
        assert out["module"][command] == [code, stdout, stderr]
    assert out["exact"] == []
    assert out["sweep_verdict"] == "pass"
    assert out["after_sweep"] == ["numpy", "ample.sweep", "ample.spheremin", "ample.curvature"]


@pytest.mark.parametrize(
    "command, epsilon, samples",
    [
        # the sampler's trace residual is 6e-5, far above the 1e-9 tolerance,
        # while every gap is finite and positive
        ("verify-lemma", 1e12, 64),
        # trace residual 1.0 and eigenvalues of -inf
        ("griffiths", 1e160, 4),
    ],
)
def test_sweeps_with_broken_constraints_exit_3(capsys, tmp_path, command, epsilon, samples):
    doc = {"sweep": {"ranks": [2], "epsilons": [epsilon], "samples": samples}}
    # the error report is written to --out; no histograms are written
    out_path, csv_path = tmp_path / "report.json", tmp_path / "hist.csv"
    argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out_path), "--csv", str(csv_path)]
    code, report, err = report_of(capsys, argv, expect_code=3)
    assert report["verdict"] == "error"
    error = report["results"]["error"]
    assert error["type"] == "InconsistentStateError"
    assert "curvature constraints violated" in error["message"]
    assert err.endswith(f"{command}: error (InconsistentStateError: {error['message']})\n")
    assert json.loads(out_path.read_text()) == report
    assert not csv_path.exists()
