import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from ample import cli
from ample.cli import main

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
    doc = {
        "ring": P2,
        "bundle": split_bundle({"h": "2"}, {"h": "1"}, {"h": "1"}),
        "assertions": ALL_ASSERTED,
    }
    code, report, err = report_of(
        capsys, ["check", "--config", write_config(tmp_path, doc)], expect_code=0
    )
    assert report["verdict"] == "hypotheses-satisfied"
    assert report["results"]["rank"] == 3
    assert report["results"]["lubke_coefficient"] == "12/5"
    assert report["warnings"] == []
    assert "hypotheses-satisfied" in err


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
    for c in report["results"]["configs"]:
        assert c["worst"]["source"] in ("random-vector", "adversarial")


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


def test_lagrange_defaults_and_flags(capsys):
    code, report, _ = report_of(capsys, ["lagrange", "--samples", "50", "--seed", "2"], expect_code=0)
    assert report["inputs"] == {"samples": 50, "seed": 2}
    assert report["results"]["max_abs_diff"] <= 1e-6


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
        '"verdict":"hypotheses-satisfied","version":"0.3.0","warnings":[]}\n',
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
        '"version":"0.3.0","warnings":["unverified hypotheses: c1_positive, ample_on_curves"]}\n',
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
        '"verdict":"fail","version":"0.3.0","warnings":[]}\n',
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
        '"verdict":"pass","version":"0.3.0","warnings":[]}\n',
        "counterexample: pass (c1_sq = 6, c2 = 5/2)\n",
    ),
    "epsilon": (
        {"ring": P2, "bundle": split_bundle({"h": "3"}, {"h": "2"}), "omega_sq": "25"},
        0,
        '{"command":"epsilon","inputs":{"bundle":{"kind":"sum","summands":[{"divisor":'
        '{"h":"3"},"kind":"line"},{"divisor":{"h":"2"},"kind":"line"}]},"omega_sq":"25",'
        '"ring":{"basis":["h"],"pairing":[["1"]]}},"results":{"c1_sq":"25","c2":"6",'
        '"epsilon":"26/125","rank":2},"verdict":"pass","version":"0.3.0","warnings":[]}\n',
        "epsilon: 26/125\n",
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_exact_command_output_is_pinned(capsys, tmp_path, command):
    doc, expect_code, expect_out, expect_err = GOLDEN[command]
    code, out, err = invoke(capsys, [command, "--config", write_config(tmp_path, doc)])
    assert (code, out, err) == (expect_code, expect_out, expect_err)


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
    code, report, err = report_of(
        capsys, [command, "--config", write_config(tmp_path, doc)], expect_code=3
    )
    assert report["verdict"] == "error"
    error = report["results"]["error"]
    assert error["type"] == "InconsistentStateError"
    assert "curvature constraints violated" in error["message"]
    assert err.endswith(f"{command}: error (InconsistentStateError: {error['message']})\n")
