"""Run the benchmark in alternating pairs of a parent and a changed checkout.

    python3 tools/bench_pairs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  For every workload that
CHANGE's BENCHMARK.json lists, the script runs PAIRS pairs of untraced
benchmark processes (`perfbench/run.py --trace 0`), one from each checkout,
each for BENCHMARK.json's run_seconds, with seeds 101, 102, ... (one per
pair); the side that runs first alternates from pair to pair, and one process
runs at a time.  For every end-to-end metric it prints each side's median and
quartiles, the change's wins (pairs in which the change reads better; equal
values count for neither side), the parent's interquartile spread, and every
pair's values.  For every pair it also says whether the two runs' request
digests agree over the requests both made.  It exits 1 if a run fails or
reports correct: false.  Run it on an otherwise idle host; it takes about
2 x PAIRS x (run_seconds + 10) s per workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bench_record import run_once, summary

PAIRS = 10
FIRST_SEED = 101


def compare(pairs: list[tuple[float, float]], better: str) -> dict:
    """Summaries of one metric over (parent, change) pairs: each side's
    `summary`, the change's wins, ties counting for neither side, and the
    parent's interquartile spread."""
    parent = summary([p for p, _ in pairs])
    change = summary([c for _, c in pairs])
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    return {"parent": parent, "change": change, "wins": wins,
            "parent_iqr": parent["q3"] - parent["q1"]}


def run_pairs(spec: dict, roots: dict, workload: str) -> tuple[dict, list[str], bool]:
    """({metric: [(parent, change) value per pair]}, a digest line per pair,
    whether every run reported correct) of one workload."""
    values, digest_lines, correct = {}, [], True
    for index in range(PAIRS):
        seed = FIRST_SEED + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        runs = {side: run_once(spec, roots[side], workload, seed, 0) for side in order}
        for side, (_, result) in runs.items():
            if not result["correct"]:
                correct = False
                print(f"{workload} seed {seed} {side}: correct: false", file=sys.stderr)
        for name in runs["parent"][1]["metrics"]:
            values.setdefault(name, []).append(
                tuple(runs[side][1]["metrics"][name]["value"] for side in ("parent", "change"))
            )
        parent_digests, change_digests = (runs[side][0]["request_digests"]
                                          for side in ("parent", "change"))
        shared = min(len(parent_digests), len(change_digests))
        same = parent_digests[:shared] == change_digests[:shared]
        digest_lines.append(f"seed {seed} ({order[0]} first): digests "
                            f"{'equal' if same else 'DIFFER'} over {shared} shared requests")
        print(f"{workload} pair {index + 1}/{PAIRS} done", file=sys.stderr)
    return values, digest_lines, correct


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    roots = {"parent": Path(args[0]).resolve(), "change": Path(args[1]).resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    all_correct = True
    for workload in (entry["name"] for entry in spec["workloads"]):
        try:
            values, digest_lines, correct = run_pairs(spec, roots, workload)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        all_correct &= correct
        print(f"{workload}: {PAIRS} pairs of {spec['run_seconds']} s")
        for name, pairs in values.items():
            entry = metrics[name]
            got = compare(pairs, entry["better"])
            parent, change = got["parent"], got["change"]
            print(f"  {name} ({entry['unit']}, {entry['better']} is better): "
                  f"parent {parent['median']:.6g} [{parent['q1']:.6g}, {parent['q3']:.6g}], "
                  f"change {change['median']:.6g} [{change['q1']:.6g}, {change['q3']:.6g}]; "
                  f"change better in {got['wins']} of {len(pairs)}; "
                  f"parent IQR {got['parent_iqr']:.6g}")
            print("    pairs (parent, change): "
                  + ", ".join(f"({p:.6g}, {c:.6g})" for p, c in pairs))
        for line in digest_lines:
            print(f"  {line}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
