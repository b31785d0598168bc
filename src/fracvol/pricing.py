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

A batch is drawn once and kept, with each estimator's outputs, in a one-batch
slot (`_batch_slot`).  A batch priced under both measures steps them through
one time loop (`_paired_batch`): the physical rows over the risk-neutral rows,
one Euler update, projection and finiteness check per step for both.  A step
of that loop, or of the lone risk-neutral one, runs only what feeds the next;
the risk-neutral log-price increments are summed after each block of steps,
in step order.
`price_both` pairs every batch of its run.  The two estimators, called one
after the other, pair a run of one batch when the one-batch run before it in
the slot was priced under both measures with the same projection setting; the
first call then stores both outputs and the second finds its own.  A one-batch
call of a single measure right after such a run pairs too and discards the
other measure's half, once; runs of several batches pair only through
`price_both`.  Each row's bits are those of its measure's own loop, and a
paired loop that fails stores nothing and the measures rerun alone, so what a
call returns or raises does not depend on the pairing.
"""

from __future__ import annotations

import math
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
from .rde import check_finite, euler_paths, euler_stepper, require_young
from .rng import batch_uniforms, stream_keys
from .scenario import Scenario
from .viability import check_viability_conditions
from .volterra import KernelMatrix, build_kernel_matrix, transform_increments

MAX_BREACH_FRACTION = 1e-3
DEFAULT_BATCH_SIZE = 4096
# Brownian increments are drawn and reordered this many at a time, which
# bounds the transient memory of `w_increments` beside its result.
_DRAW_CHUNK = 1 << 16
# The feedback loop keeps this many bytes of steps of risk-neutral volatility
# before it adds their log-price increments to the running sum.
_HISTORY_BYTES = 1 << 16


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
    check_conditions: bool = True
    project: bool = True

    def __post_init__(self):
        if self.paths < 2:
            raise ValueError("need at least 2 paths for a standard error")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


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


# (scenario, seed, start, count, xi, dW, outputs, asked, pair) of the last
# batch drawn, or None.  `outputs` maps (batch function, project) to that
# function's read-only (terminal, weight, breached) of the batch; it goes with
# the draws it used.  `asked` holds the keys priced on the batch so far by
# runs of this one batch, and `pair` the `project` settings under which such a
# run is yet to be paired.
_last_draws = None


def _batch_slot(scenario: Scenario, seed: int, start: int, count: int):
    """The slot of paths [start, start + count), drawn anew unless it holds them.

    Pricing on one (scenario, seed, batch) again, by the other estimator or for
    another payoff, reuses the last batch's draws instead of drawing them anew.
    The slot is emptied before another batch is drawn, so it never holds two.
    It is keyed on the scenario instance, whose arrays are read-only.  The slot
    is read once and replaced whole, so concurrent callers at worst draw or
    compute a batch twice.

    A one-batch run is paired under a `project` setting when one-batch runs
    priced the batch it replaces under both measures with that setting: its
    first estimator call with that setting then steps both measures' paths
    through one loop (`_paired_batch`) and stores both outputs, so the other
    estimator's call finds its outputs here.  The rule predicts from the batch
    before, so the first one-batch call of a single measure after such a batch
    runs the paired loop and leaves the other half unused; the calls after it
    run alone.  Runs of several batches never pair here, nor make the next
    batch pair; `price_both` pairs them.
    """
    global _last_draws
    last = _last_draws
    if last is not None and last[0] is scenario and last[1:4] == (seed, start, count):
        return last
    _last_draws = None
    pair = set() if last is None else {
        project
        for batch_fn, project in last[7]
        if batch_fn is _physical_batch and (_riskneutral_batch, project) in last[7]
    }
    xi = xi_draws(scenario.xi, seed, start, count)
    dw = w_increments(scenario, seed, start, count)
    xi.flags.writeable = dw.flags.writeable = False
    last = _last_draws = (scenario, seed, start, count, xi, dw, {}, set(), pair)
    return last


def _batch_draws(scenario: Scenario, seed: int, start: int, count: int):
    """Read-only (xi, dW) of paths [start, start + count), drawn once per batch."""
    return _batch_slot(scenario, seed, start, count)[4:6]


def _read_only(result):
    for array in result:
        array.flags.writeable = False
    return result


def _batch_outputs(batch_fns, scenario, km, seed, start, count, project, whole):
    """Read-only outputs of each of `batch_fns` on paths [start, start + count),
    computed once per batch: another payoff priced by the same estimator on the
    same (scenario, seed, batch) reuses them from the draw slot.  A batch that
    raises stores nothing.  `whole` says the batch is the whole run.

    Asked for both estimators, (`_physical_batch`, `_riskneutral_batch`) in
    that order, on a batch that holds neither's outputs, it steps them through
    one loop and raises what that loop raises.  Asked for one on a batch the
    slot marked for pairing, the first call stores both estimators' outputs;
    if the paired loop raises, whichever measure's paths failed first, the
    requested measure reruns alone and raises as a lone call.
    """
    outputs, asked, pair = _batch_slot(scenario, seed, start, count)[6:]
    keys = [(batch_fn, project) for batch_fn in batch_fns]
    if whole:
        asked.update(keys)
    paired = len(keys) == 2 or (whole and project in pair)
    if paired and not any(key in outputs for key in keys):
        pair.discard(project)
        try:
            both = _paired_batch(scenario, km, seed, start, count, project)
        except (FloatingPointError, ValueError):
            if len(keys) == 2:
                raise
        else:
            for batch_fn, result in zip((_physical_batch, _riskneutral_batch), both):
                outputs[batch_fn, project] = _read_only(result)
    for key in keys:
        if key not in outputs:
            outputs[key] = _read_only(key[0](scenario, km, seed, start, count, project))
    return [outputs[key] for key in keys]


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
    xi, dw = _batch_draws(scenario, seed, start, count)
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
    xi, dw, _, states = _physical_paths(scenario, km, seed, start, count, project)
    return _weighted_terminal(scenario, xi, dw, states)


def _weighted_terminal(scenario: Scenario, xi, dw, states):
    """`_physical_batch` outputs of physical-measure states (count, n + 1, d)."""
    dt = scenario.grid.dt
    params = scenario.market
    v_left = volatility(states, params)[:, :-1, :]
    breached, v_safe = floor_breach(v_left, xi)
    log_incr = log_price_increments(v_left, dw, params.drifts, dt)
    with np.errstate(over="ignore", invalid="ignore"):  # breached paths are discarded later
        log_w = log_weight(theta(v_safe, params), dw, dt)
        weight = np.exp(log_w)
        terminal = asset_prices(np.sum(log_incr, axis=1), params)
    finite = np.isfinite(log_w) | breached
    if np.count_nonzero(finite) < finite.size:
        raise FloatingPointError(
            f"log-weight became non-finite (path {int(np.argmin(finite))} of the batch)"
        )
    return terminal, weight, breached


def _riskneutral_batch(
    scenario: Scenario, km: KernelMatrix, seed: int, start: int, count: int, project: bool
):
    """Terminal prices under the risk-neutral coupling, plus breach mask.

    The shifted increments are i.i.d. Gaussian; the physical increments are
    recovered causally (left-point market price of risk) and feed the kernel
    reconstruction of the driver one row at a time.
    """
    return _feedback_loop(scenario, km, seed, start, count, project, paired=False)[1]


def _paired_batch(
    scenario: Scenario, km: KernelMatrix, seed: int, start: int, count: int, project: bool
):
    """(`_physical_batch`, `_riskneutral_batch`) outputs of a batch, bit for bit,
    from one time loop over both measures' paths."""
    return _feedback_loop(scenario, km, seed, start, count, project, paired=True)


def _feedback_loop(scenario, km, seed, start, count, project, paired):
    """(physical outputs or None, risk-neutral outputs) of a batch.

    When `paired`, the state stacks the physical rows, driven by the kernel
    transform as in `_physical_paths`, over the risk-neutral rows, driven by
    the feedback; every operation acts row by row, so each row keeps the bits
    of its measure's lone loop.

    A step runs only the chain that feeds the next: volatility, floor test,
    market price of risk, physical increments, kernel row, driver increments,
    Euler step and projection, finiteness check.  The risk-neutral log-price
    increments feed no step; the floored volatility is kept for a block of
    steps (`_HISTORY_BYTES`), whose increments are then added to the running
    sum one step after another, the order of a per-step `s_log += ...`.
    """
    grid = scenario.grid
    n, d = grid.steps, scenario.dims
    dt = grid.dt
    params = scenario.market
    xi, dw_star = _batch_draws(scenario, seed, start, count)
    xi_rows = np.concatenate([xi, xi]) if paired else xi
    rows = xi_rows.size
    rn = slice(rows - count, rows)  # the risk-neutral rows
    if paired:
        db_physical = np.diff(transform_increments(dw_star, km), axis=1)
        states = np.empty((count, n + 1, d))
    dw = np.empty((n, count * d))  # row i: physical increments of step i, all paths
    constraint = _constraint_data(scenario, xi_rows) if project else None

    step = euler_stepper(scenario.coefficients, xi_rows, dt, constraint)
    x = np.broadcast_to(scenario.initial_state, (rows, d)).copy()
    db = np.empty((rows, d))  # one step's driver increments, all rows
    b_prev = np.zeros((count, d))
    span = min(n, max(1, _HISTORY_BYTES // (8 * count * d)))
    v_history = np.empty((span, count, d))  # floored volatility of a block of steps
    s_log = np.zeros((count, d))
    breached = np.zeros(count, dtype=bool)
    frozen = False  # breached paths are frozen, and discarded later
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, span):
            hi = min(lo + span, n)
            for i in range(lo, hi):
                v = volatility(x[rn], params)
                low, v_safe = floor_breach(v, xi)
                if v_safe is not v:  # some path is at the floor
                    breached |= low
                    frozen = True
                v_history[i - lo] = v_safe
                dw_i = np.multiply(theta(v_safe, params), dt, out=dw[i].reshape(count, d))
                dw_i += dw_star[:, i]
                b_next = np.dot(km.entries[i, None, : i + 1], dw[: i + 1]).reshape(count, d)
                db_step = np.subtract(b_next, b_prev, out=db[rn])
                if frozen:  # a breached path's dW reaches only its own dB, zeroed here
                    db_step[breached] = 0.0
                if paired:
                    states[:, i] = x[:count]
                    db[:count] = db_physical[:, i]
                x = step(x, db)
                check_finite(x, i + 1)
                b_prev = b_next
            # (steps, paths, d), so the sum over steps adds them one by one
            block = log_price_increments(
                v_history[: hi - lo], dw_star[:, lo:hi].transpose(1, 0, 2), params.rate, dt
            )
            block[0] += s_log
            np.add.reduce(block, axis=0, out=s_log)
            del block
    with np.errstate(over="ignore"):  # breached paths may overflow; discarded later
        terminal = asset_prices(s_log, params)
    riskneutral = terminal, np.ones(count), breached
    if not paired:
        return None, riskneutral
    # before the weight computation's temporaries; dw_i and db_step are views
    del dw, dw_i, db, db_step, db_physical
    states[:, n] = x[:count]
    return _weighted_terminal(scenario, xi, dw_star, states), riskneutral


def _run_batches(scenario, mc, batch_fns):
    """Per batch function, its (terminal, weight, breached) over the run; and the seed."""
    seed = scenario.seed if mc.seed is None else mc.seed
    km = _kernel_matrix(scenario)
    whole = mc.paths <= mc.batch_size
    parts = [
        _batch_outputs(
            batch_fns, scenario, km, seed, start, min(mc.batch_size, mc.paths - start),
            mc.project, whole,
        )
        for start in range(0, mc.paths, mc.batch_size)
    ]
    columns = [[np.concatenate(column) for column in zip(*fn_parts)] for fn_parts in zip(*parts)]
    return columns, seed


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


def price_physical_weighted(payoff, scenario: Scenario, mc: MCConfig) -> MCResult:
    """Average of martingale-weighted discounted payoffs under the physical draws."""
    if mc.check_conditions:
        _check_scenario(scenario)
    [outputs], seed = _run_batches(scenario, mc, [_physical_batch])
    return _assemble(payoff, scenario, *outputs, seed)


def price_riskneutral(payoff, scenario: Scenario, mc: MCConfig) -> MCResult:
    """Average of discounted payoffs under the directly simulated driftless measure."""
    if mc.check_conditions:
        _check_scenario(scenario)
    [outputs], seed = _run_batches(scenario, mc, [_riskneutral_batch])
    return _assemble(payoff, scenario, *outputs, seed)


def price_both(payoff, scenario: Scenario, mc: MCConfig) -> tuple[MCResult, MCResult]:
    """(`price_physical_weighted`, `price_riskneutral`) of one claim, bit for
    bit, with every batch's two measures stepped through one loop.  If a paired
    loop fails, the two estimators run one after the other, so what this
    raises is what they raise."""
    if mc.check_conditions:
        _check_scenario(scenario)
    try:
        columns, seed = _run_batches(scenario, mc, [_physical_batch, _riskneutral_batch])
    except (FloatingPointError, ValueError):
        physical = price_physical_weighted(payoff, scenario, mc)
        return physical, price_riskneutral(payoff, scenario, mc)
    return tuple(_assemble(payoff, scenario, *outputs, seed) for outputs in columns)


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
    scenario that fails the cone-mode check unless `mc.check_conditions` is
    off.
    """
    if mc.check_conditions:
        _check_scenario(scenario)
    [outputs], _ = _run_batches(scenario, mc, [_physical_batch])
    return tuple(outputs)


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
    if n_paths < 1:
        raise ValueError(f"need at least 1 path, got {n_paths}")
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
