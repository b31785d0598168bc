"""The benchmark's three workloads: set-up, one request, and its correctness check.

Each workload is a closed loop with one client: run.py sends request r
only after request r - 1 has returned.  A request receives only its generated
input, the seed `request_seed(workload seed, r)`; `MCConfig` is otherwise left
at its defaults, so the package chooses batch size and threading itself.

Why these three (see README.md for the layer map):

* c10-worked-example -- the paper's headline check.  Both estimators price an
  at-the-money call on the two-asset worked example (H = 0.7, singular mixing
  law, projection on).  The risk-neutral kernel-row feedback loop dominates.
* c09-black-scholes -- the degenerate constant-volatility case, four pricings
  per request against the closed form.  A 16-step grid and a constant mixing
  law skip the feedback cost and the CDF bisection, so keyed RNG streams
  dominate: the same RNG layer as c10, used as many short streams.
* section4-repro -- the `reproduce-section4` command run in-process.  The
  only workload that writes files and builds a 1024-step kernel; no pricing
  estimator runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

import fracvol
import fracvol.cli
import fracvol.pricing as pricing

# Per-check z tolerance, Bonferroni over every z check the benchmark can make:
# at most Z_CHECKS checks over all runs ever compared, with a chance of
# Z_FAMILY_ALPHA that a correct engine fails any one of them.
Z_CHECKS = 10**6
Z_FAMILY_ALPHA = 1e-4
Z_TOLERANCE = float(ndtri(1.0 - Z_FAMILY_ALPHA / (2 * Z_CHECKS)))

SECTION4_NORMALIZER = 15.7604
SECTION4_NORMALIZER_TOL = 1e-3


def request_seed(seed: int, index: int) -> int:
    """Seed of request `index` in a run seeded with `seed`."""
    return seed * 1_000_003 + index


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class Outcome:
    """Paths computed, sha256 of the raw outputs, and the first failed check."""

    paths: int
    digest: str
    failure: str | None = None


def _pricing_probes(law) -> tuple[float, ...]:
    """The mixing values at which pricing runs its cone-mode condition check."""
    if isinstance(law, fracvol.SingularXi):
        return (law.cutoff, 0.5 * law.cutoff)
    return (law.value,)


def warm(scenario, tracer) -> None:
    """Set-up paid once per process: kernel matrix, CDF table, condition probes.

    The kernel is cached per (horizon, steps, hurst) and the CDF table per law
    instance, so the requests that follow run warm.
    """
    with tracer.span("volterra.kernel_build"):
        fracvol.build_kernel_matrix(scenario.grid, scenario.hurst)
    with tracer.span("coefficients.xi_inverse_cdf"):
        fracvol.xi_inverse_cdf(scenario.xi, np.array([0.5]))
    with tracer.span("viability.check"):
        for xi in _pricing_probes(scenario.xi):
            fracvol.check_viability_conditions(
                scenario.coefficients, scenario.polyhedron(xi), xi,
                mode="cone", samples_per_face=64,
            )


class C10WorkedExample:
    name = "c10-worked-example"

    def __init__(self, tiny: bool = False):
        self.steps = 2**5 if tiny else 2**8
        self.paths = 64 if tiny else 256
        self.scenario = None

    def setup(self, tracer) -> None:
        self.scenario = fracvol.section4_scenario(steps=self.steps)
        warm(self.scenario, tracer)

    def config(self, seed: int):
        return fracvol.MCConfig(paths=self.paths, seed=seed)

    def request(self, seed: int, out_dir: Path):
        mc = self.config(seed)
        call = fracvol.Call(0, 1.0)
        physical = pricing.price_physical_weighted(call, self.scenario, mc)
        riskneutral = pricing.price_riskneutral(call, self.scenario, mc)
        return physical, riskneutral

    def check(self, raw, out_dir: Path) -> Outcome:
        physical, riskneutral = raw
        outcome = Outcome(
            2 * self.paths, digest([physical.to_dict(), riskneutral.to_dict()])
        )
        z = pricing.agreement_zscore(physical, riskneutral)
        if not abs(z) <= Z_TOLERANCE:
            outcome.failure = f"estimators disagree: z = {z:+.3f}, tolerance {Z_TOLERANCE:.3f}"
        elif physical.breached or riskneutral.breached:
            outcome.failure = (
                f"paths breached the floor: {physical.breached} physical, "
                f"{riskneutral.breached} risk-neutral"
            )
        return outcome

    def waste_sample(self, seed: int):
        return self.scenario, self.config(seed)


class C09BlackScholes:
    name = "c09-black-scholes"
    vols = (0.5, 0.2)

    def __init__(self, tiny: bool = False):
        self.paths = 256 if tiny else 1024
        self.scenario = None

    def setup(self, tracer) -> None:
        self.scenario = fracvol.constant_vol_scenario(
            vol=self.vols, drifts=(0.1, 0.02), steps=16
        )
        warm(self.scenario, tracer)

    def config(self, seed: int):
        return fracvol.MCConfig(paths=self.paths, seed=seed)

    def request(self, seed: int, out_dir: Path):
        mc = self.config(seed)
        return [
            pricer(fracvol.Call(asset, 1.0), self.scenario, mc)
            for asset in range(len(self.vols))
            for pricer in (pricing.price_physical_weighted, pricing.price_riskneutral)
        ]

    def check(self, raw, out_dir: Path) -> Outcome:
        market, horizon = self.scenario.market, self.scenario.grid.horizon
        outcome = Outcome(len(raw) * self.paths, digest([res.to_dict() for res in raw]))
        for k, res in enumerate(raw):
            asset = k // 2
            target = fracvol.bs_reference_price(
                market.initial_prices[asset], 1.0, market.rate, self.vols[asset], horizon
            )
            z = (res.estimate - target) / res.stderr
            if not abs(z) <= Z_TOLERANCE:
                outcome.failure = (
                    f"pricing {k} (asset {asset}): {res.estimate:.6f} vs closed form "
                    f"{target:.6f}, z = {z:+.3f}, tolerance {Z_TOLERANCE:.3f}"
                )
                break
        return outcome

    def waste_sample(self, seed: int):
        return self.scenario, self.config(seed)


class Section4Repro:
    name = "section4-repro"
    bundle_paths = 5

    def __init__(self, tiny: bool = False):
        self.steps = 2**6 if tiny else 1024
        self.scenario = None

    def setup(self, tracer) -> None:
        self.scenario = fracvol.section4_scenario(steps=self.steps)
        warm(self.scenario, tracer)

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        argv = ["reproduce-section4", "--out", str(out_dir), "--seed", str(seed)]
        if self.steps != 1024:  # the command's default grid
            argv += ["--steps", str(self.steps)]
        return argv

    def request(self, seed: int, out_dir: Path):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = fracvol.cli.main(self.argv(seed, out_dir))
        return code, err.getvalue()

    def check(self, raw, out_dir: Path) -> Outcome:
        code, err = raw
        if code != 0:
            return Outcome(0, "", f"exit code {code}: {err.strip()}")
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        sha = hashlib.sha256()
        for path in files:
            sha.update(path.name.encode() + b"\0" + path.read_bytes())
        outcome = Outcome(self.bundle_paths, sha.hexdigest())
        report = json.loads((out_dir / "report.json").read_text())
        if report["viability_passed"] is not True:
            outcome.failure = "cone-mode viability check failed"
        elif not math.isclose(
            report["normalizer"], SECTION4_NORMALIZER, rel_tol=0.0,
            abs_tol=SECTION4_NORMALIZER_TOL,
        ):
            outcome.failure = f"normalizer {report['normalizer']} != {SECTION4_NORMALIZER}"
        return outcome

    def waste_sample(self, seed: int):
        scenario = fracvol.section4_scenario(steps=self.steps, seed=seed)
        return scenario, fracvol.MCConfig(paths=self.bundle_paths, seed=seed)


WORKLOADS = {w.name: w for w in (C10WorkedExample, C09BlackScholes, Section4Repro)}


def bundle_size(out_dir: Path) -> tuple[int, int]:
    """(files, bytes) written under a request's output directory."""
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def clear(out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
