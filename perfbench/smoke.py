"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced through BENCHMARK.json's command (a
fresh process, flags only), and checks that:

* the last line is the result object, with no failed request;
* every metric that BENCHMARK.json names is emitted, with its unit;
* in the traced run, the per-layer self times plus the remainder add up to the
  traced request time, and likewise for the traced set-up;
* the benchmark refuses to run, without a result line, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(
        cmd + ["--tiny"], cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S
    )


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def check_result(workload: str, trace: int) -> dict:
    done = bench(ROOT, workload, trace)
    check(done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace={trace}: {result['attempted']} attempted, {result['failed']} failed")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    check({m["name"] for m in wanted} == set(metrics),
          f"{workload} trace={trace}: metric names differ from BENCHMARK.json: "
          f"{sorted({m['name'] for m in wanted} ^ set(metrics))}")
    for m in wanted:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], f"{m['name']} unit {got['unit']} != {m['unit']}")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{m['name']} value {got['value']!r}")
    return metrics


def check_additive(workload: str, metrics: dict) -> None:
    """Layer self times + remainder = traced request (and set-up) time."""
    def value(name):
        return metrics[name]["value"]

    layers = [n for n in metrics if n.endswith("_s") and not n.startswith(("trace.", "setup."))]
    total = sum(value(n) for n in layers) + value("trace.remainder_s")
    check(math.isclose(total, value("trace.request_s.mean"), rel_tol=1e-9),
          f"{workload}: layer self times sum to {total}, request mean is "
          f"{value('trace.request_s.mean')}")
    parts = [n for n in metrics if n.startswith("setup.") and n != "setup.traced_s"]
    total = sum(value(n) for n in parts)
    check(math.isclose(total, value("setup.traced_s"), rel_tol=1e-9),
          f"{workload}: set-up parts sum to {total}, traced set-up is {value('setup.traced_s')}")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("out"))
    try:
        done = bench(bare, "c10-worked-example", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    check(done.returncode != 0 and not last[0].startswith("{"),
          f"ran without sources: exit {done.returncode}, stdout {done.stdout!r}")


def main() -> int:
    for w in SPEC["workloads"]:
        check_result(w["name"], 0)
        check_additive(w["name"], check_result(w["name"], 1))
        print(f"smoke: {w['name']}: ok")
    check_refuses_without_sources()
    print("smoke: refuses to run without sources: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
