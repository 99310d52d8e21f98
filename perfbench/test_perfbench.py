"""Tests of the benchmark harness itself, on tiny configs.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Small enough to run in about a second; the checks may fail at this size,
# which does not matter here.
TINY = {
    "mollify": ["--set", "grid.nx=48", "--set", "grid.ny=48", "--set", "time.nt=6"],
    "renorm": ["--set", "grid.nx=24", "--set", "grid.ny=24", "--set", "time.nt=12"],
    "stability": ["--set", "grid.nx=24", "--set", "grid.ny=24", "--set", "time.nt=12"],
}


def _child(study: str, tmp_path: Path, tag: str, trace: bool):
    out = tmp_path / f"out_{tag}"
    result = tmp_path / f"result_{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result)]
    cmd += ["--trace"] * trace
    cmd += [study, f"configs/{study}.cfg", "--out", str(out), "--quiet", *TINY[study]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **run.THREAD_VARS)
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120)
    return out, json.loads(result.read_text())


def _deterministic_files(out: Path) -> list[str]:
    return sorted(p.name for p in out.iterdir() if p.suffix == ".csv" or p.name == "summary.json")


def _counts(result: dict) -> dict:
    return {
        (span, key): value
        for span, stat in result["stats"].items()
        for key, value in stat.items()
        if not key.endswith("_s")
    }


@pytest.mark.parametrize("study", sorted(TINY))
def test_tracing_leaves_outputs_unchanged_and_counts_repeat(study, tmp_path):
    plain_out, plain = _child(study, tmp_path, "plain", trace=False)
    traced_out, first = _child(study, tmp_path, "traced", trace=True)
    _, second = _child(study, tmp_path, "again", trace=True)

    files = _deterministic_files(plain_out)
    assert "summary.json" in files and any(name.endswith(".csv") for name in files)
    assert _deterministic_files(traced_out) == files
    for name in files:
        assert (traced_out / name).read_bytes() == (plain_out / name).read_bytes(), name

    assert first["missing"] == [] and first["exit_code"] == plain["exit_code"]
    assert first["stats"]["characteristics.iter_solution_layers"]["calls"] >= 1
    assert _counts(first) == _counts(second)

