"""Tests for the trajrisk command line: verbs, formats, and exit codes."""

import json
import math
import os
import subprocess
import sys
import threading

import pytest

from trajrisk import cli
from trajrisk.cli import dump_treering, main
from trajrisk.errors import NumericalError, ValidationError
from trajrisk.scenario import scenario_from_dict, write_scenario
from trajrisk.synthetic import crossing_control_scenario

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def scenario_path(tmp_path):
    d = {
        "ego_trajectory": [
            {"x": 0.0, "y": 0.2 * t, "theta": math.pi / 2} for t in range(3)
        ],
        "ellipsoid": {"q": [[0.25, 0.0], [0.0, 1.0]]},
        "agents": [
            {
                "form": "gmm_position",
                "mode_persistence": False,
                "steps": [
                    {
                        "modes": [
                            {
                                "weight": 1.0,
                                "mean": [2.5 - 0.5 * t, 0.1],
                                "cov": [[0.3, 0.0], [0.0, 0.2]],
                            }
                        ]
                    }
                    for t in range(3)
                ],
            }
        ],
    }
    path = str(tmp_path / "scenario.json")
    write_scenario(scenario_from_dict(d), path)
    return path


# ---------------------------------------------------------------------------
# treering-dump


@pytest.mark.parametrize("order", [2, 4])
def test_dump_matches_golden(order, capsys):
    golden = open(os.path.join(DATA, f"treering_order{order}.txt"), encoding="utf-8").read()
    rc = main(["treering-dump", "--order", str(order)])
    assert rc == 0
    assert capsys.readouterr().out == golden


def test_dump_to_file(tmp_path, capsys):
    out = str(tmp_path / "dump.txt")
    rc = main(["treering-dump", "--order", "2", "--out", out])
    assert rc == 0
    assert capsys.readouterr().out == ""
    text = open(out, encoding="utf-8").read()
    assert text == dump_treering(2)
    assert text.startswith(
        "# planar unicycle position moment update expressions\n# order: 2\n"
    )


def test_dump_rejects_bad_order(capsys):
    rc = main(["treering-dump", "--order", "3"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_dump_order_is_validated_in_api_too():
    with pytest.raises(ValidationError, match="choose 2 or 4"):
        dump_treering(6)


# ---------------------------------------------------------------------------
# assess / compare / oracle


def test_assess_json_stdout(scenario_path, capsys):
    rc = main(["assess", "--scenario", scenario_path, "--methods", "ltz,chebyshev-quad"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["methods"] == ["ltz", "chebyshev-quad"]
    assert report["horizon"] == 3
    assert len(report["per_step"]) == 6


def test_assess_bare_sos_uses_degree_flag(scenario_path, capsys):
    rc = main(
        [
            "assess", "--scenario", scenario_path,
            "--methods", "sos", "--sos-degree", "2",
        ]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["methods"] == ["sos-d2"]


def test_assess_csv_out_file(scenario_path, tmp_path, capsys):
    out = str(tmp_path / "report.csv")
    rc = main(
        [
            "assess", "--scenario", scenario_path, "--methods", "imhof",
            "--format", "csv", "--out", out,
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    lines = open(out, encoding="utf-8").read().strip().split("\n")
    assert lines[0] == "agent,t,method,value,is_upper_bound,std_error"
    assert len(lines) == 1 + 3 + 1


def test_assess_mc_flags_threaded_through(scenario_path, capsys):
    rc = main(
        [
            "assess", "--scenario", scenario_path, "--methods", "mc",
            "--mc-samples", "4000", "--seed", "5",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mc_samples"] == 4000
    assert report["seed"] == 5


def test_compare_table(scenario_path, tmp_path, capsys):
    out = str(tmp_path / "cmp.json")
    rc = main(
        [
            "compare", "--scenario", scenario_path,
            "--methods", "ltz,chebyshev-quad,sos", "--out", out,
        ]
    )
    assert rc == 0
    table = capsys.readouterr().out
    lines = table.strip().split("\n")
    assert lines[0].startswith("method")
    assert "time (ms)" in lines[0]
    assert len(lines) == 2 + 3  # header, rule, one row per method
    assert lines[2].startswith("ltz")
    # --out still writes the machine-readable report.
    assert json.loads(open(out, encoding="utf-8").read())["methods"] == [
        "ltz", "chebyshev-quad", "sos-d4",
    ]


def test_oracle_is_mc_reference(scenario_path, capsys):
    rc = main(["oracle", "--scenario", scenario_path, "--mc-samples", "3000"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["methods"] == ["mc"]
    assert report["mc_samples"] == 3000


def test_mc_samples_accepts_integral_floats(scenario_path, capsys):
    # the help text says "default 1e5", and sampling_args takes 1e5 too
    rc = main(["oracle", "--scenario", scenario_path, "--mc-samples", "3e3"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["mc_samples"] == 3000


# ---------------------------------------------------------------------------
# failure exit codes


@pytest.mark.parametrize("count, message", [
    ("2000.5", "n_samples must be a finite integer"),
    ("nan", "n_samples must be a finite integer"),
    ("many", "expected a number, got 'many'"),
])
def test_bad_mc_samples_exits_1(scenario_path, count, message, capsys):
    rc = main(["oracle", "--scenario", scenario_path, "--mc-samples", count])
    assert rc == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("form", ["position", "control"])
@pytest.mark.parametrize("count", ["1000000000000", "1e12"])
def test_impossible_mc_samples_exits_1(scenario_path, tmp_path, form, count, capsys):
    # counts this large fail at their first allocation, before any draw
    path = scenario_path
    if form == "control":
        path = str(tmp_path / "control.json")
        write_scenario(scenario_from_dict(crossing_control_scenario(seed=0, n_steps=3)), path)
    before = threading.active_count()
    rc = main(["oracle", "--scenario", path, "--mc-samples", count])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate")
    assert "Traceback" not in err
    assert threading.active_count() == before


def test_unknown_method_exits_1(scenario_path, capsys):
    rc = main(["assess", "--scenario", scenario_path, "--methods", "simpson"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_1(scenario_path, capsys):
    rc = main(["assess", "--scenario", scenario_path])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "error:" in err


def test_no_command_exits_1(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_scenario_file_exits_1(tmp_path, capsys):
    rc = main(["assess", "--scenario", str(tmp_path / "nope.json"), "--methods", "ltz"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    rc = main(["assess", "--scenario", str(path), "--methods", "ltz"])
    assert rc == 1
    assert "broken.json:1" in capsys.readouterr().err


def test_unwritable_out_exits_1(scenario_path, tmp_path, capsys):
    out = str(tmp_path / "missing-dir" / "report.json")
    rc = main(["assess", "--scenario", scenario_path, "--methods", "ltz", "--out", out])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_nonfinite_or_nonpositive_tol_exits_1(scenario_path, tol, capsys):
    rc = main(["assess", "--scenario", scenario_path, "--methods", "imhof", "--tol", tol])
    assert rc == 1
    assert "tol must be finite and positive" in capsys.readouterr().err


def test_numerical_failure_exits_2(scenario_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("quadrature did not converge")

    monkeypatch.setattr(cli, "run_assess", boom)
    rc = main(["assess", "--scenario", scenario_path, "--methods", "imhof"])
    assert rc == 2
    assert "numerical failure:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "trajrisk.cli", "treering-dump", "--order", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == dump_treering(2)


def test_closed_pipe_is_quiet():
    # `trajrisk ... | head` must not spray an error when head closes the pipe.
    proc = subprocess.run(
        f"{sys.executable} -m trajrisk.cli treering-dump --order 4 | head -n 2",
        shell=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0  # head's exit status
    assert proc.stderr == ""
    assert proc.stdout.startswith("# planar unicycle")
