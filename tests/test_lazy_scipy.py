"""scipy is loaded on first use, never by importing trajrisk.

Only imhof and ltz (``scipy.special``) and the SDP behind sos-d4/d6
(``scipy.linalg.lapack``) call scipy.  Each check runs in a fresh
interpreter, since this test process has long imported scipy: importing
the package and running the control-form bounds, the Monte Carlo oracle
and the CLI must leave ``sys.modules`` without any scipy module, and the
methods that do load it must then give the values they give in a process
that imported scipy before anything else.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = r"""
import json, sys

if sys.argv[1] == "scipy-first":
    import scipy.linalg.lapack, scipy.special

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import trajrisk
from trajrisk import cli, scenario, synthetic

loaded = {"import trajrisk": scipy_modules()}
control = scenario.scenario_from_dict(synthetic.crossing_control_scenario(seed=5, n_steps=6))
position = scenario.scenario_from_dict(synthetic.crossing_position_scenario(seed=5, n_steps=6))
scenario.run_assess(control, ["chebyshev-quad", "chebyshev-halfspace", "sos-d2"])
loaded["control run_assess"] = scipy_modules()
scenario.run_oracle(position, mc_samples=2000)
loaded["position run_oracle"] = scipy_modules()
scenario.run_oracle(control, mc_samples=2000)
loaded["control run_oracle"] = scipy_modules()
path, out = sys.argv[2:4]
scenario.write_scenario(control, path)
cli.main(["assess", "--scenario", path, "--out", out,
          "--methods", "chebyshev-quad,chebyshev-halfspace,sos-d2,mc", "--mc-samples", "2000"])
loaded["cli assess"] = scipy_modules()

report = scenario.run_assess(position, ["imhof", "ltz", "sos-d4"])
values = [[r.method, r.agent, r.t, r.value] for r in list(report.rows) + list(report.totals)]
print(json.dumps({"loaded": loaded, "after": scipy_modules(), "values": values}))
"""


def _run(mode: str, tmp_path) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode,
         str(tmp_path / f"{mode}.json"), str(tmp_path / f"{mode}-report.json")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_scipy_is_loaded_only_by_the_methods_that_call_it(tmp_path):
    lazy = _run("lazy", tmp_path)
    for step, modules in lazy["loaded"].items():
        assert modules == [], f"{step} loaded {modules}"
    assert "scipy.special" in lazy["after"] and "scipy.linalg.lapack" in lazy["after"]
    eager = _run("scipy-first", tmp_path)
    assert eager["loaded"]["import trajrisk"] != []
    assert lazy["values"] == eager["values"]
    assert {m for m, *_ in lazy["values"]} == {"imhof", "ltz", "sos-d4"}
