"""Report bytes pinned across commits.

Each document of report_corpus.json is run the way the benchmark runs one
(config_from_mapping, cli.run, report.render).  Its outcome is the exit
code and the sha256 of the rendered report with `version` blanked; for a
document that exits 2 the report does not exist, and the outcome holds the
error JSON that the CLI writes to stderr instead.  The corpus holds the
tiny cycles of the benchmark's three workloads (lemma-ac4,
griffiths-lowrank-2t and exact-cli at seed 1), sweeps of both commands in
both sampler modes at batch sizes 7 and 777 and at threads 1 and 2, and
documents that exit 2 and 3.

report_digests.json stores the outcomes under a key of numpy version and
platform, such as numpy-2.4.6-linux-x86_64, since LAPACK and einsum's SIMD
paths may round differently elsewhere.  Under a key with no stored
outcomes, the comparison with them is skipped, with the key in the skip
reason; the batch-size and thread variants of a sweep must still hash
equal to each other.  A change that moves bits regenerates the file with

    PYTHONPATH=src python tests/regen_report_digests.py

which rewrites this key's entry, keeps the other keys', and prints the
documents whose outcome moved.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from ample import cli, config, report
from ample.errors import ConfigError

HERE = Path(__file__).parent
CORPUS = json.loads((HERE / "report_corpus.json").read_text(encoding="utf-8"))
DIGESTS = HERE / "report_digests.json"
KEY = f"numpy-{np.__version__}-{platform.system().lower()}-{platform.machine()}"


def outcome(doc: dict) -> dict:
    """The exit code with the blanked report's sha256, or for exit 2 the error JSON."""
    try:
        cfg = config.config_from_mapping(doc)
    except ConfigError as exc:
        return {"exit": cli.EXIT_CONFIG, **cli._error_results(exc)}
    code, rep = cli.run(cfg)
    text = report.render({**rep, "version": ""})
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def outcomes() -> dict:
    return {name: outcome(doc) for name, doc in CORPUS["documents"].items()}


@pytest.fixture(scope="module")
def rendered():
    return outcomes()


def test_the_corpus_reaches_every_exit_code(rendered):
    assert {entry["exit"] for entry in rendered.values()} == {0, 1, 2, 3}


def test_batch_size_and_thread_variants_hash_equal(rendered):
    for group in CORPUS["equal"]:
        assert len({rendered[name]["sha256"] for name in group}) == 1, group


def test_reports_match_the_stored_digests(rendered):
    stored = json.loads(DIGESTS.read_text(encoding="utf-8")).get(KEY)
    if stored is None:
        pytest.skip(f"no stored report digests for {KEY}")
    moved = sorted(name for name in rendered.keys() | stored.keys() if rendered.get(name) != stored.get(name))
    assert moved == []
