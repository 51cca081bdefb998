"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, kind):
    proc = _bench("--workload", "all", "--smoke", "--seconds", "0.5",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["workloads"]) == NAMES
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for metrics in result["workloads"].values():
        assert {k: v["unit"] for k, v in metrics.items()} == expected
    reports = [json.loads(line)["report"] for line in lines
               if line.startswith('{"report"')]
    assert [r["workload"] for r in reports] == NAMES
    for r in reports:
        assert r["checks"] > 1 and r["failed_frac"] == 0.0
        assert r["seed"] == 7 and r["environment"]["nproc"] >= 1
    if kind == "per_layer":
        from run import LAYER_TARGETS
        assert set(LAYER_TARGETS) == set(expected)
    printed = [line.split() for line in lines if not line.startswith("{")]
    for name, unit in expected.items():
        rows = [t for t in printed if t[:1] == [name]]
        assert len(rows) == len(NAMES) and all(unit in t for t in rows), name


def _corrupt(rows, column, value):
    bad = [dict(r) for r in rows]
    bad[len(bad) // 2][column] = value
    return bad


@pytest.mark.parametrize("name,column,value", [
    ("mc_codebooks", "delta1_mc", "0.5"),
    ("oracle", "delta1", "0.9"),
    ("mc_channels", "stderr", "0"),
    ("skew_design", "delta_snr", "1.5"),
])
def test_output_checks_reject_a_corrupted_row(tmp_path, name, column, value):
    from rvqlab import harness
    from workloads import WORKLOADS, read_rows

    wl = WORKLOADS[name]
    config = wl.config(7, True, str(tmp_path))
    harness.run(config)
    rows = read_rows(tmp_path / f"{config.experiment}.csv")
    checks, failures = wl.check(config, rows)
    assert checks > 1 and failures == []
    assert wl.check(config, _corrupt(rows, column, value))[1]


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", NAMES[0], "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
