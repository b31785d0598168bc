"""Record the benchmark's end-to-end metrics for one checkout in BENCH_<n>.json.

    python3 tools/bench_record.py --out BENCH_7.json [--root PATH]

For every workload that BENCHMARK.json lists, the script runs the benchmark
command (`python3 perfbench/run.py`) for BENCHMARK.json's run_seconds, RUNS
times untraced with seeds 1..RUNS and once traced with seed 1, one process at
a time, from the checkout at --root (default: this repository).  It writes, per workload, the median and
quartiles of each end-to-end metric and of each traced per-layer metric, the
request and failure counts and first three request digests of every run (equal
seeds give equal digests unless output bits moved), and the provenance that the details
line of the first run reports (nproc, versions, git commit, source sha256).
When it finishes it prints the source sha256 and git commit it recorded, and
says so if the checkout's src/ differs from that commit, whose hash then
names no commit.  Run it on an otherwise idle host; it takes about (RUNS + 1)
x (run_seconds + 10) s per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
RUNS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to measure (default: this repository)")
    return parser.parse_args(argv)


def run_once(spec: dict, root: Path, workload: str, seed: int,
             trace: int) -> tuple[dict, dict]:
    """(details, result) of one benchmark process; RuntimeError, with the
    command and the tail of its stderr, if it exits nonzero."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-20:])
        raise RuntimeError(f"{' '.join(cmd)} (in {root}) exited {done.returncode}:\n{tail}")
    *_, details, result = done.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


def summary(values: list[float]) -> dict:
    """Median, quartiles and raw values of one metric over runs."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def record_workload(spec: dict, root: Path, workload: str) -> tuple[dict, dict]:
    """(record, provenance) of one workload over all its runs."""
    runs, metrics, units, provenance = [], {}, {}, None
    for trace, count in ((0, RUNS), (1, 1)):
        for seed in range(1, count + 1):
            details, result = run_once(spec, root, workload, seed, trace)
            provenance = provenance or details["provenance"]
            runs.append({"seed": seed, "trace": trace, "attempted": result["attempted"],
                         "failed": result["failed"], "correct": result["correct"],
                         "first_digests": details["request_digests"][:3]})
            for name, metric in result["metrics"].items():
                metrics.setdefault((trace, name), []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed} trace {trace}: {result['attempted']} requests, "
                  f"{result['failed']} failed", file=sys.stderr)

    def table(trace):
        return {name: dict(unit=units[name], **summary(values))
                for (t, name), values in metrics.items() if t == trace}

    return {"runs": runs, "end_to_end": table(0), "per_layer": table(1)}, provenance


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.root / "BENCHMARK.json").read_text())
    workloads, provenance = {}, {}
    for entry in spec["workloads"]:
        name = entry["name"]
        workloads[name], provenance[name] = record_workload(spec, args.root, name)
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "command": spec["command"],
        "runs": RUNS,
        "traced_runs": 1,
        "seconds": spec["run_seconds"],
        "provenance": provenance,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for sha, commit in sorted({(p["source_sha256"], p["git_commit"]) for p in provenance.values()}):
        print(f"{args.out}: source_sha256 {sha}, git commit {commit}")
    dirty = subprocess.run(["git", "-C", str(args.root), "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True).stdout
    if dirty:
        print(f"src/ has changes not in that commit:\n{dirty}", end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
