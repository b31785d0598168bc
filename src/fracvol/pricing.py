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

Every run first rejects a scenario that fails the cone-mode boundary
conditions (`_check_scenario`), without which the pricing formula does not
hold; each estimator rejects a claim that does not fit the scenario's assets
(`_check_payoff`) before that, and checks a callable payoff's values after
the run.  The last run's outputs are kept (`_last_run`), keyed on the scenario
instance and the run's (seed, paths, projection): each estimator's read-only
terminal prices, weights and breach mask over the whole run, (d + 1) * 8 + 1
bytes per path and estimator, so another payoff on the same run does no path
work.  Draws are not kept: `simulate_scenario_paths` and two lone estimator
calls on one seed each draw their own.  Every measure is stepped by one loop
(`_feedback_loop`), over the rows of the measures a run needs.  A run steps
both measures at once when asked for both, or when it is one batch following
a one-batch run asked for both under the same projection setting; each row
keeps the bits it has when its measure runs alone, and if the paired loop
fails the measures run alone, so the pairing never changes a result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy.special import ndtri

from .coefficients import ConstantXi, SingularXi, XiLaw, xi_inverse_cdf, XI_STREAM
from .grids import is_integer
from .market import (
    asset_prices,
    discount_factor,
    floor_breach,
    log_price_increments,
    log_weight,
    price_paths,
    theta,
    vol_floor,
    volatility,
)
from .rde import check_finite, euler_paths, euler_stepper, require_young
from .rng import batch_uniforms, check_seed, stream_keys
from .scenario import Scenario
from .viability import check_viability_conditions
from .volterra import KernelMatrix, build_kernel_matrix, transform_increments

MAX_BREACH_FRACTION = 1e-3
# Brownian increments are drawn and reordered this many at a time, which
# bounds the transient memory of `w_increments` beside its result.
_DRAW_CHUNK = 1 << 16
# The feedback loop keeps this many bytes of steps of risk-neutral volatility
# before it adds their log-price increments to the running sum.
_HISTORY_BYTES = 1 << 16
# The physical weights are computed this many bytes of (n, d) increments at a
# time: 64 paths at 256 steps, which measured faster than 16, 32, 128 or all.
_WEIGHT_BYTES = 1 << 18


class BreachRateError(RuntimeError):
    """Raised when too many paths hit the volatility floor to trust the estimate."""


def _check_strike(strike: float) -> None:
    if not (math.isfinite(strike) and strike >= 0):
        raise ValueError(f"strike must be finite and nonnegative, got {strike}")


@dataclass(frozen=True)
class _Vanilla:
    """A European claim on one asset, by its nonnegative integer index."""

    asset: int
    strike: float

    def __post_init__(self):
        if not (is_integer(self.asset) and self.asset >= 0):
            raise ValueError(f"asset must be a nonnegative integer, got {self.asset!r}")
        _check_strike(self.strike)


class Call(_Vanilla):
    """Pays max(S_asset - strike, 0)."""


class Put(_Vanilla):
    """Pays max(strike - S_asset, 0)."""


@dataclass(frozen=True, eq=False)
class Basket:
    weights: np.ndarray
    strike: float

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        if not np.all(np.isfinite(weights)):
            raise ValueError("basket weights must be finite")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        _check_strike(self.strike)


def _check_payoff(payoff, dims: int) -> None:
    """Reject a claim that does not fit `dims` assets: a call or put on an
    asset index >= dims, a basket without one weight per asset in one
    dimension, and a payoff of another type that is not callable."""
    if isinstance(payoff, _Vanilla):
        if payoff.asset >= dims:
            raise ValueError(f"asset index {payoff.asset} out of range for {dims} assets")
    elif isinstance(payoff, Basket):
        if payoff.weights.shape != (dims,):
            raise ValueError(
                f"basket weights must have shape ({dims},), one per asset, "
                f"got shape {payoff.weights.shape}"
            )
    elif not callable(payoff):
        raise TypeError(f"unsupported payoff {payoff!r}")


def payoff_values(payoff, terminal: np.ndarray) -> np.ndarray:
    """Payoff of each row of terminal prices (paths, d).

    Raises for a claim that does not fit d assets (`_check_payoff`), and
    ValueError for a callable whose values do not broadcast to (paths,).
    """
    terminal = np.atleast_2d(terminal)
    paths, d = terminal.shape
    _check_payoff(payoff, d)
    if isinstance(payoff, Call):
        return np.maximum(terminal[:, payoff.asset] - payoff.strike, 0.0)
    if isinstance(payoff, Put):
        return np.maximum(payoff.strike - terminal[:, payoff.asset], 0.0)
    if isinstance(payoff, Basket):
        return np.maximum(terminal @ payoff.weights - payoff.strike, 0.0)
    values = np.asarray(payoff(terminal), dtype=float)
    try:
        return np.broadcast_to(values, (paths,))
    except ValueError:
        raise ValueError(
            f"a payoff must give one value per path, shape ({paths},) or one that "
            f"broadcasts to it; got shape {values.shape}"
        ) from None


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run parameters: integer `paths` and `seed`, and `project`.

    `seed` of None means "use the scenario's seed".  `batch_size` is a class
    constant, not a setting: runs build paths that many at a time, which
    bounds their memory; path draws are keyed per path, so the batch size does
    not change which paths are drawn.

    `project` keeps the state inside its shifted constraint set by a Euclidean
    projection after every Euler step.  Pricing needs the volatility bounded
    away from zero for the measure-change weights to be integrable, so hard
    feasibility is the default here; the floor guard then only fires if the
    projection itself misbehaves.
    """

    batch_size: ClassVar[int] = 4096

    paths: int
    seed: int | None = None
    project: bool = True

    def __post_init__(self):
        if not isinstance(self.paths, numbers.Integral):
            raise ValueError(f"paths must be an integer, got {self.paths!r}")
        if not (self.seed is None or isinstance(self.seed, numbers.Integral)):
            raise ValueError(f"seed must be an integer or None, got {self.seed!r}")
        if self.seed is not None:
            check_seed(self.seed)
        if self.paths < 2:
            raise ValueError("need at least 2 paths for a standard error")


@dataclass(frozen=True)
class MCResult:
    estimate: float
    stderr: float
    paths: int
    seed: int
    breached: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


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


def _draws(scenario: Scenario, seed: int, start: int, count: int):
    """(xi, dW) of paths [start, start + count)."""
    return xi_draws(scenario.xi, seed, start, count), w_increments(scenario, seed, start, count)


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


def _weighted_terminal(scenario: Scenario, xi, dw, states):
    """Terminal prices, martingale weights and breach mask of physical states (count, n + 1, d).

    The weights are computed a block of paths (`_WEIGHT_BYTES`) at a time, and
    each path's sums keep their order, so the block size moves no bits.
    `states` may be a path-major view of step-major states.

    The premium and drifts are copied once to one path's (n, d) shape, so that
    numpy runs a block's arithmetic n * d elements at a time, as fast as with
    a copy for every path of the block and 4-5x faster than with the (d,)
    arrays, which it runs d elements at a time.  numpy sums a path's log-price
    increments over steps one after another when d >= 2, also d elements at a
    time, which `np.add.reduce` over a step-major copy repeats with the same
    bits; over one asset `np.sum` sums them pairwise, so d = 1 keeps it.
    """
    dt = scenario.grid.dt
    params = scenario.market
    count, n, d = dw.shape
    size = max(1, _WEIGHT_BYTES // (8 * n * d))
    premium = np.broadcast_to(params.premium, (n, d)).copy()
    drifts = np.broadcast_to(params.drifts, (n, d)).copy()
    s_log = np.empty((count, d))
    log_w = np.empty(count)
    breached = np.empty(count, dtype=bool)
    for lo in range(0, count, size):
        hi = min(lo + size, count)
        v_left = volatility(np.ascontiguousarray(states[lo:hi]), params)[:, :-1, :]
        breached[lo:hi], v_safe = floor_breach(v_left, xi[lo:hi])
        log_incr = log_price_increments(v_left, dw[lo:hi], drifts, dt)
        with np.errstate(over="ignore", invalid="ignore"):  # breached paths are discarded later
            log_w[lo:hi] = log_weight(theta(v_safe, premium), dw[lo:hi], dt)
            if d > 1:
                log_incr = np.ascontiguousarray(log_incr.transpose(1, 0, 2))  # step-major
                np.add.reduce(log_incr, axis=0, out=s_log[lo:hi])
            else:
                np.sum(log_incr, axis=1, out=s_log[lo:hi])
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.exp(log_w)
        terminal = asset_prices(s_log, params)
    finite = np.isfinite(log_w) | breached
    if np.count_nonzero(finite) < finite.size:
        raise FloatingPointError(
            f"log-weight became non-finite (path {int(np.argmin(finite))} of the batch)"
        )
    return terminal, weight, breached


def _feedback_loop(scenario, km, xi, dw_star, project, measures):
    """{measure: (terminal, weight, breached)} of a batch, for a nonempty set
    `measures` of "physical" and "riskneutral".

    The state stacks the physical rows, driven by the kernel transform of the
    increments, over the risk-neutral rows, driven by the feedback; every
    operation acts row by row, so a row's bits do not depend on the rows
    stepped beside it.

    A risk-neutral step runs only the chain that feeds the next: volatility,
    floor test, market price of risk, physical increments, kernel row, driver
    increments, Euler step and projection, finiteness check.  The risk-neutral
    log-price increments feed no step; the floored volatility is kept for a
    block of steps (`_HISTORY_BYTES`), whose increments are then added to the
    running sum one step after another, the order of a per-step `s_log += ...`.
    The physical weights are computed from the states after the loop.

    Per-step arrays are step-major: a block's shifted increments are a
    (steps, paths, d) view of the draws, the physical driver increments and
    states are (n, paths, d) and (n + 1, paths, d), and the volatility is
    written straight into its history row.
    """
    n, d, dt = scenario.grid.steps, scenario.dims, scenario.grid.dt
    params = scenario.market
    count = xi.size
    physical = "physical" in measures
    riskneutral = "riskneutral" in measures
    xi_rows = np.concatenate([xi, xi]) if physical and riskneutral else xi
    rows = xi_rows.size
    rn = slice(rows - count, rows)  # the risk-neutral rows
    if physical:
        b_steps = transform_increments(dw_star, km).transpose(1, 0, 2)
        db_physical = np.subtract(b_steps[1:], b_steps[:-1], out=np.empty((n, count, d)))
        del b_steps
        states = np.empty((n + 1, count, d))
    if riskneutral:
        dw = np.empty((n, count * d))  # row i: physical increments of step i, all paths
    constraint = _constraint_data(scenario, xi_rows) if project else None

    step = euler_stepper(scenario.coefficients, xi_rows, dt, constraint)
    x = np.broadcast_to(scenario.initial_state, (rows, d)).copy()
    db = np.empty((rows, d))  # one step's driver increments, all rows
    span = min(n, max(1, _HISTORY_BYTES // (8 * count * d)))
    if riskneutral:
        b_prev = np.zeros((count, d))
        v_history = np.empty((span, count, d))  # floored volatility of a block of steps
        # the floor at the volatility's full shape: a (count, 1) floor makes
        # numpy compare d elements at a time
        floor = np.broadcast_to(vol_floor(xi, 2), (count, d)).copy()
        s_log = np.zeros((count, d))
        breached = np.zeros(count, dtype=bool)
        frozen = False  # breached paths are frozen, and discarded later
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, span):
            hi = min(lo + span, n)
            if riskneutral:
                dw_block = dw_star[:, lo:hi].transpose(1, 0, 2)  # a step-major view
            for i in range(lo, hi):
                if riskneutral:
                    v = volatility(x[rn], params, out=v_history[i - lo])
                    low, v_safe = floor_breach(v, xi, floor)
                    if v_safe is not v:  # some path is at the floor
                        breached |= low
                        frozen = True
                        v[...] = v_safe
                    dw_i = theta(v, params.premium, out=dw[i].reshape(count, d))
                    dw_i *= dt
                    dw_i += dw_block[i - lo]
                    b_next = np.dot(km.entries[i, None, : i + 1], dw[: i + 1]).reshape(count, d)
                    db_step = np.subtract(b_next, b_prev, out=db[rn])
                    b_prev = b_next
                    if frozen:  # a breached path's dW reaches only its own dB, zeroed here
                        db_step[breached] = 0.0
                if physical:
                    states[i] = x[:count]
                    db[:count] = db_physical[i]
                x = step(x, db)
                check_finite(x, i + 1)
            if riskneutral:
                # (steps, paths, d), so the sum over steps adds them one by one
                block = log_price_increments(v_history[: hi - lo], dw_block, params.rate, dt)
                block[0] += s_log
                np.add.reduce(block, axis=0, out=s_log)
                del block
    outputs = {}
    if riskneutral:
        del dw, dw_i, db_step  # dw_i and db_step are views of dw and db
        with np.errstate(over="ignore"):  # breached paths may overflow; discarded later
            terminal = asset_prices(s_log, params)
        outputs["riskneutral"] = terminal, np.ones(count), breached
    if physical:
        del db, db_physical  # before the weight computation's temporaries
        states[n] = x[:count]
        outputs["physical"] = _weighted_terminal(
            scenario, xi, dw_star, states.transpose(1, 0, 2)
        )
    return outputs


# (scenario, (seed, paths, project), outputs, asked) of the last run, or
# None.  `outputs` maps each measure, "physical" or "riskneutral", to its
# read-only (terminal, weight, breached) over the run, and `asked` holds the
# measures that calls on the run asked for.  A new run replaces it whole, so
# concurrent callers at worst compute a measure twice.
_last_run = None


def _run(scenario, mc, measures):
    """Per measure, its (terminal, weight, breached) over the run; and the seed.

    The scenario is checked first (`_check_scenario`), before the kernel build
    and any draw.  Only what the last run's memo lacks is computed.  The
    measures run through one paired loop when both are missing, or when the
    run is new and of one batch and follows a run of one batch asked for both
    under the same `project`.  If a paired loop fails, the missing measures
    run alone in the order asked, so each raises as its own estimator does.
    """
    global _last_run
    _check_scenario(scenario)
    seed = scenario.seed if mc.seed is None else mc.seed
    km = _kernel_matrix(scenario)
    key = (seed, mc.paths, mc.project)
    last = _last_run
    pair = False
    if last is None or last[0] is not scenario or last[1] != key:
        pair = (
            last is not None
            and len(last[3]) == 2
            and max(last[1][1], mc.paths) <= MCConfig.batch_size  # one batch before and now
            and last[1][2] == mc.project
        )
        last = _last_run = (scenario, key, {}, set())
    outputs, asked = last[2:]
    asked.update(measures)
    missing = [measure for measure in measures if measure not in outputs]

    def loop(names):
        parts = _batches(_feedback_loop, scenario, km, seed, mc.paths, mc.project, names)
        return {name: _joined([part[name] for part in parts]) for name in names}

    if len(missing) == 2 or pair:
        try:
            outputs.update(loop(("physical", "riskneutral")))
        except (FloatingPointError, ValueError):
            pass
    for measure in missing:
        if measure not in outputs:
            outputs.update(loop((measure,)))
    return [outputs[measure] for measure in measures], seed


def _batches(batch_fn, scenario, km, seed, paths, project, *args):
    """`batch_fn`'s outputs on each batch of paths [0, paths), whose draws are
    freed before the next batch is drawn; `args` follow `project`."""
    size = MCConfig.batch_size
    return [
        batch_fn(
            scenario, km, *_draws(scenario, seed, start, min(size, paths - start)), project, *args
        )
        for start in range(0, paths, size)
    ]


def _joined(parts):
    """Read-only (terminal, weight, breached) of a run from its batches' outputs."""
    outputs = tuple(np.concatenate(column) for column in zip(*parts))
    for array in outputs:
        array.flags.writeable = False
    return outputs


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
            scenario.coefficients, scenario.polyhedron(xi), xi, mode="cone"
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
    weight = weight[keep]
    if not np.count_nonzero(weight):
        raise FloatingPointError("every kept path's measure-change weight underflowed to 0")
    discount = discount_factor(scenario.grid.horizon, scenario.market)
    values = discount * weight * payoff_values(payoff, terminal[keep])
    estimate = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return MCResult(estimate, stderr, int(values.size), int(seed), n_breached)


def _estimate(payoff, scenario: Scenario, mc: MCConfig, measures) -> tuple[MCResult, ...]:
    """`payoff`'s result under each of `measures`, in order: the claim is
    checked against the scenario (`_check_payoff`) before the run."""
    _check_payoff(payoff, scenario.dims)
    columns, seed = _run(scenario, mc, measures)
    return tuple(_assemble(payoff, scenario, *outputs, seed) for outputs in columns)


def price_physical_weighted(payoff, scenario: Scenario, mc: MCConfig) -> MCResult:
    """Average of martingale-weighted discounted payoffs under the physical draws."""
    return _estimate(payoff, scenario, mc, ("physical",))[0]


def price_riskneutral(payoff, scenario: Scenario, mc: MCConfig) -> MCResult:
    """Average of discounted payoffs under the directly simulated driftless measure."""
    return _estimate(payoff, scenario, mc, ("riskneutral",))[0]


def price_both(payoff, scenario: Scenario, mc: MCConfig) -> tuple[MCResult, MCResult]:
    """(`price_physical_weighted`, `price_riskneutral`) of one claim, bit for
    bit, with every batch's two measures stepped through one loop; if the loop
    fails, the measures run alone, physical first, and raise as they do."""
    return _estimate(payoff, scenario, mc, ("physical", "riskneutral"))


def agreement_zscore(a: MCResult, b: MCResult) -> float:
    """z-score of the difference of two estimates with independent-error bars.

    With both error bars 0 it is 0.0 for equal estimates and +-inf otherwise.
    """
    diff = a.estimate - b.estimate
    scale = math.hypot(a.stderr, b.stderr)
    if scale == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / scale


def physical_terminal_sample(scenario: Scenario, mc: MCConfig):
    """Terminal prices, martingale weights, and breach mask for diagnostics.

    Exposes the raw physical-measure sample so that moment identities (weight
    mean one, weighted discounted prices matching spot) can be tested without
    re-simulating per payoff.  Like the estimators, it first rejects a
    scenario that fails the cone-mode check.
    """
    [outputs], _ = _run(scenario, mc, ("physical",))
    return tuple(array.copy() for array in outputs)


def bs_reference_price(
    s0: float, strike: float, rate: float, sigma: float, maturity: float, kind: str = "call"
) -> float:
    """Closed-form lognormal reference price for the constant-volatility case."""
    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
    if not math.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate}")
    for name, value in (("s0", s0), ("sigma", sigma), ("maturity", maturity)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    _check_strike(strike)
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
    time).  Paths are built `MCConfig.batch_size` at a time, bounding the
    transient memory; the draws are keyed per path, so batching moves no bits.
    """
    if not is_integer(n_paths):
        raise ValueError(f"n_paths must be an integer, got {n_paths!r}")
    if n_paths < 1:
        raise ValueError(f"need at least 1 path, got {n_paths}")
    km = _kernel_matrix(scenario)
    parts = _batches(_simulated_batch, scenario, km, scenario.seed, n_paths, project)
    return [path for part in parts for path in part]


def _simulated_batch(scenario, km, xi, dw, project) -> list[dict]:
    """`simulate_scenario_paths` output for the paths of draws (xi, dW)."""
    params = scenario.market
    count = xi.size
    normals, offsets = _constraint_data(scenario, xi)
    b_values = transform_increments(dw, km)
    db = np.diff(b_values, axis=1)
    constraint = (normals, offsets) if project else None
    states = euler_paths(
        scenario.coefficients, xi, db, scenario.initial_state, scenario.grid.dt, constraint
    )
    w = np.concatenate([np.zeros((count, 1, scenario.dims)), np.cumsum(dw, axis=1)], axis=1)
    vol = volatility(states, params)
    prices = price_paths(
        log_price_increments(vol[:, :-1], dw, params.drifts, scenario.grid.dt), params
    )
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
