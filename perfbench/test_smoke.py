"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Checks that each run passes its correctness gate and reports exactly the
metrics ``BENCHMARK.json`` names, with their units, and that the runner
refuses to produce a result when the package sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Modules a workload must not reach, and one function it must.
ABSENT = {"position-exact": ("treering", "sos", "sdp", "mc")}
PRESENT = {
    "position-exact": "qfmvg.imhof_cdf",
    "control-bounds": "treering.propagate",
    "bound-sweep": "sdp.solve_dense_sdp",
    "mc-oracle": "mc.mc_control_risk",
}


def _run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_named_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["failed_frac"] == 0

    spec = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in got.items()}
    assert all(isinstance(v["value"], (int, float)) for v in got.values())
    if trace:
        assert got["failed_frac"]["value"] == 0
        assert got[PRESENT[workload] + ".calls"]["value"] > 0
        for name, v in got.items():
            if name.endswith(".calls") and name.split(".")[0] in ABSENT.get(workload, ()):
                assert v["value"] == 0, name
    else:
        assert all(v["value"] > 0 for v in got.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
