"""The array writers of `RiskReport` against the text they replaced.

`to_json` writes from the report's row arrays with per-row templates and
must equal ``json.dumps(report.to_dict(), indent=2) + "\\n"`` byte for
byte; `to_csv` must equal the former `csv.writer` output
(`reference_scenario.report_csv`).  The corpora mirror the benchmark's:
position-exact (1, 2, 4 and 8 agents, with and without persistent modes),
control-bounds, and Monte Carlo reports carrying ``std_error``, ``ci95``,
``mc_samples`` and ``seed``.
"""

import json
import math

import numpy as np
import pytest

import reference_scenario as ref
from trajrisk.cli import main
from trajrisk.errors import ValidationError
from trajrisk.scenario import RowBlock, run_assess, scenario_from_dict, write_scenario
from trajrisk.synthetic import crossing_control_scenario, crossing_position_scenario

POSITION_METHODS = ["imhof", "ltz", "chebyshev-quad", "chebyshev-halfspace"]
CONTROL_METHODS = ["chebyshev-halfspace", "chebyshev-quad", "sos-d2"]


def _agents(make, seed, n_agents, **kw):
    doc = make(rng=np.random.default_rng([seed, 0]), n_steps=12, **kw)
    for k in range(1, n_agents):
        doc["agents"].append(make(rng=np.random.default_rng([seed, k]), n_steps=12, **kw)["agents"][0])
    return doc


def _assert_writers_match(report):
    assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"
    assert report.to_csv() == ref.report_csv(report)


@pytest.mark.parametrize("persistent", [False, True])
@pytest.mark.parametrize("n_agents", [1, 2, 4, 8])
def test_position_exact_corpus(n_agents, persistent):
    for seed in range(3):
        doc = _agents(crossing_position_scenario, seed, n_agents)
        for k, agent in enumerate(doc["agents"]):
            agent["mode_persistence"] = persistent and k % 2 == 0
        _assert_writers_match(run_assess(scenario_from_dict(doc), POSITION_METHODS))


@pytest.mark.parametrize("n_modes", [2, 3])
@pytest.mark.parametrize("n_agents", [1, 2, 4])
def test_control_bounds_corpus(n_agents, n_modes):
    for seed in range(3):
        doc = _agents(crossing_control_scenario, seed, n_agents, n_modes=n_modes)
        _assert_writers_match(run_assess(scenario_from_dict(doc), CONTROL_METHODS))


@pytest.mark.parametrize("make", [crossing_position_scenario, crossing_control_scenario])
def test_monte_carlo_report(make):
    doc = _agents(make, 5, 2)
    report = run_assess(scenario_from_dict(doc), ["mc", "chebyshev-quad"], mc_samples=4000, seed=3)
    text = report.to_json()
    assert '"std_error"' in text and '"ci95"' in text
    assert text.endswith('"mc_samples": 4000,\n  "seed": 3\n}\n')
    _assert_writers_match(report)


def test_values_outside_the_unit_interval_are_rejected_per_block():
    with pytest.raises(ValidationError, match=r"^report value nan outside \[0, 1\]$"):
        RowBlock(0, "imhof", False, np.array([0.5, math.nan, 2.0]))
    with pytest.raises(ValidationError, match=r"^report value 1\.5 outside \[0, 1\]$"):
        RowBlock(0, "imhof", False, np.array([0.5, 0.25, 1.5]))


@pytest.mark.parametrize("fmt", ["JSON", "xml", ""])
def test_write_accepts_only_json_and_csv(tmp_path, fmt):
    # unchecked, every format other than "json" was written as CSV
    report = run_assess(scenario_from_dict(_agents(crossing_position_scenario, 1, 1)), ["ltz"])
    path = tmp_path / "report.out"
    with pytest.raises(ValidationError, match="'json' or 'csv'"):
        report.write(str(path), format=fmt)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_assess_output_files(tmp_path, fmt):
    doc = _agents(crossing_position_scenario, 2, 2)
    path, out = str(tmp_path / "scenario.json"), str(tmp_path / f"report.{fmt}")
    sc = scenario_from_dict(doc)
    write_scenario(sc, path)
    methods = POSITION_METHODS + ["mc"]
    assert main(["assess", "--scenario", path, "--methods", ",".join(methods),
                 "--mc-samples", "2000", "--seed", "4", "--out", out, "--format", fmt]) == 0
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        # the timings differ from run to run; the layout must not
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    else:
        assert text == ref.report_csv(run_assess(sc, methods, mc_samples=2000, seed=4))
