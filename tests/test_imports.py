"""The engine's import graph: no run or command loads scipy's linear algebra,
optimisation or integration packages.  The engine needs numpy and
`scipy.special` only; `scipy.optimize` and `scipy.integrate` would add about
20 MiB to every process that imports it, and `scipy.linalg` 6.4 MiB."""

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


COMMANDS = """
import json
import sys
from pathlib import Path

from fracvol.cli import main
from fracvol.scenario import scenario_to_dict, section4_scenario

out = Path(sys.argv[1])
scenario = out / "worked.json"
scenario.write_text(json.dumps(scenario_to_dict(section4_scenario(steps=8))))
for argv in (
    ["fbm", "--hurst", "0.7", "--steps", "8", "--method", "woodchan", "--out", str(out / "w")],
    ["fbm", "--hurst", "0.7", "--steps", "8", "--method", "cholesky", "--out", str(out / "c")],
    ["check-viability", str(scenario)],
    ["simulate", str(scenario), "--paths", "2", "--out", str(out / "s")],
    ["price", str(scenario), "--paths", "16", "--both"],
    ["reproduce-section4", "--steps", "8", "--paths", "2", "--out", str(out / "r")],
):
    assert main(argv) == 0, argv
print("loaded:", *sorted(m for m in sys.modules if m.split(".")[:2] in (
    ["scipy", "linalg"], ["scipy", "optimize"], ["scipy", "integrate"])))
"""


def test_no_command_loads_scipy_linalg_optimize_or_integrate(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", COMMANDS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "loaded:"
