"""European claim pricing at time 0 by two independent Monte Carlo estimators.

Both estimators simulate the full pipeline per path: draw the mixing variable,
draw Brownian increments, build the long-memory driver through the kernel
matrix, advance the state equation by explicit Euler (with a per-step
projection onto the shifted constraint set by default, which keeps the
volatility above its floor and the measure-change weights integrable), read
off the volatility, and evolve prices by their exact exponential solution.

* The physical-measure estimator weights each discounted payoff with the
  terminal exponential martingale of the market price of risk.
* The risk-neutral estimator draws the shifted increments directly and
  reconstructs the physical increments step by step (the market price of risk
  at the left grid point feeds back into the driver), so discounted prices are
  driftless by construction.

Path draws are keyed by (seed, path index, component), so the two estimators
consume identical uniforms for the same seed: with equal drifts and rate they
coincide path for path, and in general they are common-random-number coupled.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .coefficients import ConstantXi, SingularXi, XiLaw, xi_inverse_cdf, XI_STREAM
from .market import (
    asset_prices,
    discount_factor,
    floor_breach,
    log_price_increments,
    log_weight,
    price_paths,
    theta,
    volatility,
)
from .rde import euler_paths, euler_step, require_young
from .rng import batch_uniforms, stream_keys
from .scenario import Scenario
from .viability import check_viability_conditions
from .volterra import KernelMatrix, build_kernel_matrix, transform_increments

MAX_BREACH_FRACTION = 1e-3
DEFAULT_BATCH_SIZE = 4096
# Brownian increments are drawn and reordered this many at a time, which
# bounds the transient memory of `w_increments` beside its result.
_DRAW_CHUNK = 1 << 16


class BreachRateError(RuntimeError):
    """Raised when too many paths hit the volatility floor to trust the estimate."""


def _check_strike(strike: float) -> None:
    if strike < 0:
        raise ValueError(f"strike must be nonnegative, got {strike}")


@dataclass(frozen=True)
class Call:
    asset: int
    strike: float

    def __post_init__(self):
        _check_strike(self.strike)


@dataclass(frozen=True)
class Put:
    asset: int
    strike: float

    def __post_init__(self):
        _check_strike(self.strike)


@dataclass(frozen=True, eq=False)
class Basket:
    weights: np.ndarray
    strike: float

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("basket weights must be finite")
        _check_strike(self.strike)


def payoff_values(payoff, terminal: np.ndarray) -> np.ndarray:
    """Payoff of each row of terminal prices (paths, d)."""
    terminal = np.atleast_2d(terminal)
    if isinstance(payoff, Call):
        return np.maximum(terminal[:, payoff.asset] - payoff.strike, 0.0)
    if isinstance(payoff, Put):
        return np.maximum(payoff.strike - terminal[:, payoff.asset], 0.0)
    if isinstance(payoff, Basket):
        return np.maximum(terminal @ payoff.weights - payoff.strike, 0.0)
    if callable(payoff):
        return np.asarray(payoff(terminal), dtype=float)
    raise TypeError(f"unsupported payoff {payoff!r}")


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run parameters.

    `seed` of None means "use the scenario's seed".  The batch size only
    controls memory and the float reduction layout; path draws themselves are
    independent of batching.

    `project` keeps the state inside its shifted constraint set by a Euclidean
    projection after every Euler step.  Pricing needs the volatility bounded
    away from zero for the measure-change weights to be integrable, so hard
    feasibility is the default here; the floor guard then only fires if the
    projection itself misbehaves.
    """

    paths: int
    seed: int | None = None
    batch_size: int = DEFAULT_BATCH_SIZE
    threads: int = 1
    check_conditions: bool = True
    project: bool = True

    def __post_init__(self):
        if self.paths < 2:
            raise ValueError("need at least 2 paths for a standard error")
        if self.batch_size < 1 or self.threads < 1:
            raise ValueError("batch_size and threads must be positive")


@dataclass(frozen=True)
class MCResult:
    estimate: float
    stderr: float
    paths: int
    seed: int
    breached: int = 0

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "paths": self.paths,
            "seed": self.seed,
            "breached": self.breached,
        }


def xi_draws(law: XiLaw, seed: int, start: int, count: int) -> np.ndarray:
    """Mixing-variable draws for paths [start, start + count)."""
    if isinstance(law, ConstantXi):
        return np.full(count, law.value)
    keys = stream_keys(seed, range(start, start + count), [XI_STREAM])
    return xi_inverse_cdf(law, batch_uniforms(keys, 1).reshape(count))


def w_increments(scenario: Scenario, seed: int, start: int, count: int) -> np.ndarray:
    """Brownian increments (count, n, d) for paths [start, start + count)."""
    n = scenario.grid.steps
    d = scenario.dims
    sq_dt = math.sqrt(scenario.grid.dt)
    out = np.empty((count, n, d))
    chunk = max(1, _DRAW_CHUNK // (n * d))
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        u = batch_uniforms(stream_keys(seed, range(start + lo, start + hi), range(d)), n)
        np.multiply(ndtri(u, out=u).transpose(0, 2, 1), sq_dt, out=out[lo:hi])
    return out


def _constraint_data(scenario: Scenario, xi: np.ndarray):
    """Half-space data of the shifted sets K(xi), one offset row per path.

    The anchors scale linearly in xi, so the offsets are xi times the offsets
    of the unit-shift set while the normals are shared.
    """
    base = scenario.polyhedron(1.0)
    return base.normals, xi[:, None] * base.offsets


def _kernel_matrix(scenario: Scenario) -> KernelMatrix:
    """Kernel matrix of the scenario's driver, checked before any path is drawn."""
    require_young(scenario.hurst)
    return build_kernel_matrix(scenario.grid, scenario.hurst)


def _physical_paths(
    scenario: Scenario, km: KernelMatrix, seed: int, start: int, count: int, project: bool
):
    """(xi, dW, B, states) of physical-measure paths [start, start + count).

    With `project`, every Euler step is projected onto the path's own K(xi).
    """
    xi = xi_draws(scenario.xi, seed, start, count)
    dw = w_increments(scenario, seed, start, count)
    b_values = transform_increments(dw, km)
    db = np.diff(b_values, axis=1)
    constraint = _constraint_data(scenario, xi) if project else None
    states = euler_paths(
        scenario.coefficients, xi, db, scenario.initial_state, scenario.grid.dt, constraint
    )
    return xi, dw, b_values, states


def _physical_batch(
    scenario: Scenario, km: KernelMatrix, seed: int, start: int, count: int, project: bool
):
    """Terminal prices, terminal martingale weights, and breach mask for a batch."""
    dt = scenario.grid.dt
    params = scenario.market
    xi, dw, _, states = _physical_paths(scenario, km, seed, start, count, project)
    v_left = volatility(states, params)[:, :-1, :]
    breached, v_safe = floor_breach(v_left, xi)
    log_incr = log_price_increments(v_left, dw, params.drifts, dt)
    with np.errstate(over="ignore"):  # breached paths may overflow; discarded later
        weight = np.exp(log_weight(theta(v_safe, params), dw, dt))
        terminal = asset_prices(np.sum(log_incr, axis=1), params)
    return terminal, weight, breached


def _riskneutral_batch(
    scenario: Scenario, km: KernelMatrix, seed: int, start: int, count: int, project: bool
):
    """Terminal prices under the risk-neutral coupling, plus breach mask.

    The shifted increments are i.i.d. Gaussian; the physical increments are
    recovered causally (left-point market price of risk) and feed the kernel
    reconstruction of the driver one row at a time.
    """
    grid = scenario.grid
    n, d = grid.steps, scenario.dims
    dt = grid.dt
    params = scenario.market
    xi = xi_draws(scenario.xi, seed, start, count)
    dw_star = w_increments(scenario, seed, start, count)
    dw = np.empty((n, count * d))  # row i: physical increments of step i, all paths
    constraint = _constraint_data(scenario, xi) if project else None

    x = np.broadcast_to(scenario.initial_state, (count, d)).copy()
    b_prev = np.zeros((count, d))
    s_log = np.zeros((count, d))
    breached = np.zeros(count, dtype=bool)
    for i in range(n):
        low, v_safe = floor_breach(volatility(x, params), xi)
        breached |= low
        th_i = theta(v_safe, params)
        th_i[breached] = 0.0  # freeze breached paths; they are discarded later
        dw[i] = (dw_star[:, i] + th_i * dt).reshape(-1)
        b_next = np.dot(km.entries[i, None, : i + 1], dw[: i + 1]).reshape(count, d)
        db_step = b_next - b_prev
        db_step[breached] = 0.0
        x = euler_step(scenario.coefficients, xi, x, db_step, dt, constraint)
        b_prev = b_next
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"state became non-finite at step {i + 1}")
        s_log += log_price_increments(v_safe, dw_star[:, i], params.rate, dt)
    with np.errstate(over="ignore"):  # breached paths may overflow; discarded later
        terminal = asset_prices(s_log, params)
    return terminal, np.ones(count), breached


def _run_batches(scenario, mc, batch_fn):
    seed = scenario.seed if mc.seed is None else mc.seed
    km = _kernel_matrix(scenario)
    ranges = [
        (start, min(mc.batch_size, mc.paths - start))
        for start in range(0, mc.paths, mc.batch_size)
    ]

    def run(batch):
        start, count = batch
        return batch_fn(scenario, km, seed, start, count, mc.project)

    if mc.threads > 1:
        with ThreadPoolExecutor(max_workers=mc.threads) as pool:
            parts = list(pool.map(run, ranges))
    else:
        parts = list(map(run, ranges))
    terminal, weight, breached = (np.concatenate(column) for column in zip(*parts))
    return terminal, weight, breached, seed


@lru_cache(maxsize=8)
def _check_scenario(scenario: Scenario) -> None:
    """Reject scenarios whose boundary conditions fail the cone-mode check.

    The result depends only on the scenario, whose arrays are read-only, so a
    passing scenario is certified once per instance; a failing one raises on
    every call, since exceptions are not cached.
    """
    law = scenario.xi
    if isinstance(law, SingularXi):
        probes = (law.cutoff, 0.5 * law.cutoff)
    else:
        probes = (law.value,)
    for xi in probes:
        report = check_viability_conditions(
            scenario.coefficients,
            scenario.polyhedron(xi),
            xi,
            mode="cone",
            samples_per_face=64,
        )
        if not report.passed:
            raise ValueError(
                "scenario fails the cone-mode boundary conditions at xi="
                f"{xi:g}:\n{report.format_table()}"
            )


def _assemble(payoff, scenario, terminal, weight, breached, seed) -> MCResult:
    total = terminal.shape[0]
    n_breached = int(np.count_nonzero(breached))
    if n_breached > MAX_BREACH_FRACTION * total:
        raise BreachRateError(
            f"{n_breached} of {total} paths breached the volatility floor "
            f"(limit {MAX_BREACH_FRACTION:.1%}); the estimate is not trustworthy"
        )
    keep = ~breached
    discount = discount_factor(scenario.grid.horizon, scenario.market)
    values = discount * weight[keep] * payoff_values(payoff, terminal[keep])
    estimate = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return MCResult(estimate, stderr, int(values.size), int(seed), n_breached)


def price_physical_weighted(payoff, scenario: Scenario, mc: MCConfig) -> MCResult:
    """Average of martingale-weighted discounted payoffs under the physical draws."""
    if mc.check_conditions:
        _check_scenario(scenario)
    terminal, weight, breached, seed = _run_batches(scenario, mc, _physical_batch)
    return _assemble(payoff, scenario, terminal, weight, breached, seed)


def price_riskneutral(payoff, scenario: Scenario, mc: MCConfig) -> MCResult:
    """Average of discounted payoffs under the directly simulated driftless measure."""
    if mc.check_conditions:
        _check_scenario(scenario)
    terminal, weight, breached, seed = _run_batches(scenario, mc, _riskneutral_batch)
    return _assemble(payoff, scenario, terminal, weight, breached, seed)


def agreement_zscore(a: MCResult, b: MCResult) -> float:
    """z-score of the difference of two estimates with independent-error bars."""
    return (a.estimate - b.estimate) / math.hypot(a.stderr, b.stderr)


def physical_terminal_sample(scenario: Scenario, mc: MCConfig):
    """Terminal prices, martingale weights, and breach mask for diagnostics.

    Exposes the raw physical-measure sample so that moment identities (weight
    mean one, weighted discounted prices matching spot) can be tested without
    re-simulating per payoff.  Like the estimators, it first rejects a
    scenario that fails the cone-mode check unless `mc.check_conditions` is
    off.
    """
    if mc.check_conditions:
        _check_scenario(scenario)
    terminal, weight, breached, _ = _run_batches(scenario, mc, _physical_batch)
    return terminal, weight, breached


def bs_reference_price(
    s0: float, strike: float, rate: float, sigma: float, maturity: float, kind: str = "call"
) -> float:
    """Closed-form lognormal reference price for the constant-volatility case."""
    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
    if sigma <= 0 or maturity <= 0:
        raise ValueError("sigma and maturity must be positive")
    if strike < 0:
        raise ValueError("strike must be nonnegative")
    if strike == 0:
        return float(s0) if kind == "call" else 0.0
    sq = sigma * math.sqrt(maturity)
    d1 = (math.log(s0 / strike) + (rate + 0.5 * sigma**2) * maturity) / sq
    d2 = d1 - sq
    df = math.exp(-rate * maturity)
    phi = _norm_cdf
    if kind == "call":
        return s0 * phi(d1) - strike * df * phi(d2)
    return strike * df * phi(-d2) - s0 * phi(-d1)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def simulate_scenario_paths(
    scenario: Scenario, n_paths: int, project: bool = False
) -> list[dict]:
    """Pipeline output of paths [0, n_paths) for plotting and inspection.

    The paths are the physical estimator's paths for the scenario's seed.
    Returns one dict per path with keys xi, w, b, state, vol, prices, margin
    (the slack of the state inside its shifted constraint set at each grid
    time).  Paths are built in batches of DEFAULT_BATCH_SIZE, which bounds the
    transient memory; the draws are keyed per path, so batching moves no bits.
    """
    km = _kernel_matrix(scenario)
    out = []
    for start in range(0, n_paths, DEFAULT_BATCH_SIZE):
        count = min(DEFAULT_BATCH_SIZE, n_paths - start)
        out += _simulated_batch(scenario, km, start, count, project)
    return out


def _simulated_batch(scenario, km, start, count, project) -> list[dict]:
    """`simulate_scenario_paths` output for paths [start, start + count)."""
    params = scenario.market
    xi, dw, b_values, states = _physical_paths(
        scenario, km, scenario.seed, start, count, project
    )
    w = np.concatenate([np.zeros((count, 1, scenario.dims)), np.cumsum(dw, axis=1)], axis=1)
    vol = volatility(states, params)
    prices = price_paths(
        log_price_increments(vol[:, :-1], dw, params.drifts, scenario.grid.dt), params
    )
    normals, offsets = _constraint_data(scenario, xi)
    margin = np.min(offsets[:, None, :] - states @ normals.T, axis=2)
    return [
        {
            "xi": float(xi[p]),
            "w": w[p],
            "b": b_values[p],
            "state": states[p],
            "vol": vol[p],
            "prices": prices[p],
            "margin": margin[p],
        }
        for p in range(count)
    ]
