"""fracvol benchmark runner: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src, never from
an installed copy.  With --trace 0 the run measures the end-to-end metrics
with no wrapper in the call path; with --trace 1 every other request is
traced and the run reports the per-layer split (see README.md).  End-to-end
times are adjusted for the host's speed, measured between requests (see
hostspeed.py).  The last line
of standard output is the result object; the line before it carries request
counts, output digests and provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up is timed once in this process and once in each of SETUP_SAMPLES - 1
# fresh processes; the median is reported.
SETUP_SAMPLES = 5
SETUP_PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "paths_per_s": "paths/s",
    "request_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_package():
    """Put ./src first on the path; refuse to run without the sources."""
    src = ROOT / "src"
    if not (src / "fracvol" / "__init__.py").is_file():
        raise SystemExit(f"error: no fracvol sources under {src}")
    sys.path.insert(0, str(src))
    import fracvol

    if Path(fracvol.__file__).resolve().parent != src / "fracvol":
        raise SystemExit(f"error: imported fracvol from {fracvol.__file__}, not {src}")
    return fracvol


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (tiny grids and path counts)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this process, print it, exit")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance.


def _blas_threads():
    """Thread count of each OpenBLAS that numpy and scipy ship, via its C API."""
    found = {}
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    sha = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        sha.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def provenance(fracvol, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "fracvol": getattr(fracvol, "__version__", None),
        "workload_seed": seed,
        "mc_batch_size": getattr(fracvol.MCConfig(paths=2), "batch_size", None),
    }


# ---------------------------------------------------------------------------
# Set-up.


def time_setup(workload, tracer) -> tuple[float, float]:
    """(wall, adjusted) seconds of one set-up."""
    before = hostspeed.measure()
    start = time.perf_counter()
    with tracer.span("setup"):
        workload.setup(tracer)
    wall = time.perf_counter() - start
    return wall, hostspeed.adjusted(wall, before, hostspeed.measure())


def setup_probe(name: str, tiny: bool) -> tuple[float, float]:
    """(wall, adjusted) set-up seconds of a fresh process, after its imports."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=True
    )
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


# ---------------------------------------------------------------------------
# The request loop.


def run_requests(workload, seed: int, seconds: float, tracer, out_dir: Path) -> list[dict]:
    """Closed loop for `seconds`; with a tracer, even-numbered requests are traced.

    The host-speed calibration runs before the first request and after each
    one, outside the timed interval.
    """
    import workloads

    records = []
    calibration = hostspeed.measure()
    start = time.perf_counter()
    min_requests = 2 if tracer else 1
    while len(records) < min_requests or time.perf_counter() - start < seconds:
        index = len(records)
        rseed = workloads.request_seed(seed, index)
        req_dir = out_dir / f"{index:06d}"
        traced = tracer is not None and index % 2 == 0
        waste = None
        with tracer.installed() if traced else contextlib.nullcontext():
            root = tracer.span("request") if traced else contextlib.nullcontext()
            t0 = time.perf_counter()
            with root as span:
                raw, error = attempt(workload.request, rseed, req_dir)
            elapsed = time.perf_counter() - t0
            if traced:
                files, size = workloads.bundle_size(req_dir) if req_dir.exists() else (0, 0)
                span.counts.update(files_written=files, bytes_written=size)
                with tracer.span("waste"):
                    waste = waste_ratios(*workload.waste_sample(rseed))
        outcome = None
        if error is None:
            outcome, error = attempt(workload.check, raw, req_dir)
        if outcome is not None:
            error = outcome.failure
        workloads.clear(req_dir)
        before, calibration = calibration, hostspeed.measure()
        records.append({
            "seconds": elapsed,
            "adjusted_s": hostspeed.adjusted(elapsed, before, calibration),
            "traced": traced,
            "paths": outcome.paths if error is None else 0,
            "digest": outcome.digest if outcome else "",
            "failure": error,
            "waste": waste,
        })
    return records


def attempt(fn, *args):
    """(result, None), or (None, message) if fn raised: a failed request is counted."""
    try:
        return fn(*args), None
    except Exception as exc:  # any error the program raises fails this request only
        return None, f"{type(exc).__name__}: {exc}"


def waste_ratios(scenario, mc) -> tuple[float, float]:
    """Kish effective sample share and unbreached share of the physical sample."""
    import fracvol.pricing

    _, weight, breached = fracvol.pricing.physical_terminal_sample(scenario, mc)
    kept = weight[~breached]
    ess = kept.sum() ** 2 / np.sum(kept * kept) if kept.size else 0.0
    return float(ess / mc.paths), float(kept.size / mc.paths)


# ---------------------------------------------------------------------------
# Metrics.


def end_to_end(records: list[dict], setup_samples: list[float]) -> dict:
    """End-to-end metrics from host-speed-adjusted times."""
    seconds = [r["adjusted_s"] for r in records]
    return {
        "paths_per_s": sum(r["paths"] for r in records) / sum(seconds),
        "request_s.p50": statistics.median(seconds),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(records: list[dict], tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: mean self time and counts per traced request."""
    import spans

    reqs = spans.breakdowns(tracer.spans, "request")
    (setup,) = spans.breakdowns(tracer.spans, "setup")
    n = len(reqs)

    def self_s(name):
        return sum(b.self_s.get(name, 0.0) for b in reqs) / n

    def calls(name):
        return sum(b.calls.get(name, 0) for b in reqs) / n

    def count(key):
        return sum(b.counts.get(key, 0) for b in reqs) / n

    def ratio(num, den):
        total = sum(b.counts.get(den, 0) for b in reqs)
        return sum(b.counts.get(num, 0) for b in reqs) / total if total else 0.0

    traced = [r for r in records if r["traced"]]
    untraced = [r["seconds"] for r in records if not r["traced"]]
    traced_p50 = statistics.median(r["seconds"] for r in traced)
    waste = [r["waste"] for r in traced]
    return {
        "rng.w_increments_s": (self_s("rng.w_increments"), "s"),
        "rng.xi_uniforms_s": (self_s("rng.xi_uniforms"), "s"),
        "rng.streams": (count("streams"), "count"),
        "coefficients.xi_inverse_cdf_s": (self_s("coefficients.xi_inverse_cdf"), "s"),
        "volterra.kernel_build_s": (self_s("volterra.kernel_build"), "s"),
        "volterra.kernel_calls": (calls("volterra.kernel_build"), "count"),
        "volterra.kernel_bytes": (max(b.counts.get("kernel_bytes", 0) for b in reqs), "bytes"),
        "volterra.transform_s": (self_s("volterra.transform"), "s"),
        "volterra.transform_flops": (count("transform_flops"), "flop"),
        "volterra.transform_bytes": (count("transform_bytes"), "bytes"),
        "pricing.rn_feedback_s": (self_s("pricing.rn_feedback"), "s"),
        "pricing.rn_feedback_flops": (count("rn_feedback_flops"), "flop"),
        "pricing.rn_feedback_bytes": (count("rn_feedback_bytes"), "bytes"),
        "pricing.physical_s": (self_s("pricing.physical"), "s"),
        "pricing.payoff_s": (self_s("pricing.payoff"), "s"),
        "pricing.simulate_s": (self_s("pricing.simulate"), "s"),
        "pricing.ess_ratio": (statistics.fmean(w[0] for w in waste), "ratio"),
        "pricing.kept_ratio": (statistics.fmean(w[1] for w in waste), "ratio"),
        "rde.euler_s": (self_s("rde.euler"), "s"),
        "rde.steps": (count("steps"), "count"),
        "viability.project_s": (self_s("viability.project"), "s"),
        "viability.project_calls": (calls("viability.project"), "count"),
        "viability.project_outside_ratio": (ratio("project_outside", "project_points"), "ratio"),
        "viability.check_s": (self_s("viability.check"), "s"),
        "viability.check_calls": (calls("viability.check"), "count"),
        "cli.write_s": (self_s("cli.write"), "s"),
        "cli.bytes_written": (count("bytes_written"), "bytes"),
        "cli.files_written": (count("files_written"), "count"),
        "trace.remainder_s": (sum(b.remainder_s for b in reqs) / n, "s"),
        "trace.request_s.mean": (sum(b.total_s for b in reqs) / n, "s"),
        "trace.request_s.p50": (traced_p50, "s"),
        "trace.overhead_s": (traced_p50 - statistics.median(untraced), "s"),
        "trace.requests": (float(n), "count"),
        "setup.traced_s": (setup.total_s, "s"),
        "setup.volterra.kernel_build_s": (setup.self_s.get("volterra.kernel_build", 0.0), "s"),
        "setup.coefficients.xi_inverse_cdf_s": (
            setup.self_s.get("coefficients.xi_inverse_cdf", 0.0), "s"),
        "setup.viability.check_s": (setup.self_s.get("viability.check", 0.0), "s"),
        "setup.remainder_s": (setup.remainder_s, "s"),
    }


# ---------------------------------------------------------------------------


def run(args, fracvol, workload) -> tuple[dict, dict]:
    """One benchmark run; returns (details, result)."""
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    setup_samples = [time_setup(workload, tracer or spans.NullTracer())]
    out_dir = OUT / f"requests-{os.getpid()}"
    try:
        records = run_requests(workload, args.seed, args.seconds, tracer, out_dir)
    finally:
        workloads.clear(out_dir)
    failed = [r for r in records if r["failure"] is not None]

    if tracer:
        metrics = per_layer(records, tracer)
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"spans-{workload.name}.jsonl", "w") as handle:
            for s in tracer.spans:
                handle.write(json.dumps(dataclasses.asdict(s)) + "\n")
    else:
        setup_samples += [
            setup_probe(workload.name, args.tiny) for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics = {
            k: (v, END_TO_END_UNITS[k])
            for k, v in end_to_end(records, [adj for _, adj in setup_samples]).items()
        }

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "requests": len(records),
        "requests_failed": len(failed),
        "failures": [r["failure"] for r in failed[:5]],
        "z_tolerance": workloads.Z_TOLERANCE,
        "reference_s": hostspeed.REFERENCE_S,
        "setup_s_samples": [{"wall": w, "adjusted": a} for w, a in setup_samples],
        "request_seconds": [r["seconds"] for r in records],
        "request_adjusted_s": [r["adjusted_s"] for r in records],
        "request_digests": [r["digest"] for r in records],
        "provenance": provenance(fracvol, args.seed),
    }
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return details, result


def main(argv=None) -> int:
    args = parse_args(argv)
    fracvol = import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    if args.setup_probe:
        print(json.dumps(time_setup(workload, spans.NullTracer())))
        return 0
    details, result = run(args, fracvol, workload)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
