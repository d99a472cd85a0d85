"""Self-check of the benchmark: every workload at minimal size.

Run from the root of the repository with::

    python3 -m pytest perfbench/tests -q

Each workload runs at its minimal size (``--seconds 0``: whole units
until 100 calls are done; one unit when traced), untraced and traced, and
must print every metric that ``BENCHMARK.json`` names, with its unit.  A corrupted reference entry must be caught, and the
benchmark must refuse to run without the library source next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [
            *SPEC["command"],
            "--workload", workload,
            "--seed", "7",
            "--seconds", "0",
            "--trace", str(trace),
            *extra,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, result = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(printed["value"] > 0 for printed in result["metrics"].values())


def test_a_corrupted_reference_entry_fails_the_run(tmp_path):
    tables = reference.load()
    # Every warm pass solves every target of the class, this one included.
    tables["tables"][reference.key(*workloads.warm_targets()[0])][0] += 1
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(tables))
    proc, result = _run("class-sweep-warm", 0, "--reference", str(corrupted))
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        ignore = shutil.ignore_patterns("out", "__pycache__")
        shutil.copytree(ROOT / path, tmp_path / path, ignore=ignore)
    proc, result = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
