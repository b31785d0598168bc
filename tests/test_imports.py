"""The engine's import graph: no run loads scipy's optimisation or integration
packages, which would add about 20 MiB to every process that imports it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys
import fracvol
import fracvol.cli
from fracvol import Call, MCConfig, check_viability_conditions, price_both
from fracvol.scenario import section4_scenario

scenario = section4_scenario(steps=8)
xi = scenario.xi.upper
report = check_viability_conditions(scenario.coefficients, scenario.polyhedron(xi), xi)
assert report.passed
price_both(Call(0, 1.0), scenario, MCConfig(paths=16))
print(" ".join(sorted(m for m in sys.modules if m.split(".")[:2] in (
    ["scipy", "optimize"], ["scipy", "integrate"]))))
"""


def test_a_run_loads_neither_scipy_optimize_nor_integrate():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
