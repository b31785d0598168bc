"""Market layer: volatility projection, asset prices, and the measure-change objects.

Prices use the exact exponential solution of the lognormal dynamics with the
volatility and the market price of risk evaluated at the left grid point of
each step, which keeps every discrete sum adapted to the driving increments.
Functions other than the discount factor act on arrays with leading path (and
time) axes, so the pricing engine and `simulate` call them on whole batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import is_integer


@dataclass(frozen=True, eq=False)
class MarketParams:
    """Rate, per-asset drifts, initial prices, and the volatility projections.

    Row k of `projections` is the vector h_k defining volatility component k as
    <h_k, U(t)>; `anchor_indices` locate the coordinate used to anchor the
    shifted constraint set, and each h_k must be nonzero there.  The arrays are
    read-only copies of the inputs, and `premium` is the read-only risk
    premium r - b_k of each asset.
    """

    rate: float
    drifts: np.ndarray
    initial_prices: np.ndarray
    projections: np.ndarray
    anchor_indices: tuple[int, ...]
    initial_riskfree: float = 1.0
    premium: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        drifts = np.atleast_1d(np.array(self.drifts, dtype=float))
        prices = np.atleast_1d(np.array(self.initial_prices, dtype=float))
        proj = np.atleast_2d(np.array(self.projections, dtype=float))
        for name, arr in (("drifts", drifts), ("initial_prices", prices), ("projections", proj)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
        indices = tuple(self.anchor_indices)
        if not all(map(is_integer, indices)):
            raise ValueError(f"anchor_indices must be integers, got {indices!r}")
        indices = tuple(map(int, indices))
        object.__setattr__(self, "drifts", drifts)
        object.__setattr__(self, "initial_prices", prices)
        object.__setattr__(self, "projections", proj)
        object.__setattr__(self, "anchor_indices", indices)
        d = proj.shape[0]
        if proj.shape != (d, d):
            raise ValueError(f"projections must be square, got shape {proj.shape}")
        if drifts.shape != (d,) or prices.shape != (d,):
            raise ValueError("drifts and initial_prices must have one entry per asset")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be finite and positive, got {self.rate}")
        if not np.all(prices > 0):
            raise ValueError("initial prices must be positive")
        if not (math.isfinite(self.initial_riskfree) and self.initial_riskfree > 0):
            raise ValueError("initial_riskfree must be finite and positive")
        if len(indices) != d:
            raise ValueError("need one anchor index per projection vector")
        for k, ik in enumerate(indices):
            if not 0 <= ik < d:
                raise ValueError(f"anchor index {ik} out of range for dimension {d}")
            if proj[k, ik] == 0:
                raise ValueError(f"projection {k} vanishes at its anchor index {ik}")
        premium = self.rate - drifts
        premium.setflags(write=False)
        object.__setattr__(self, "premium", premium)

    @property
    def dims(self) -> int:
        return self.projections.shape[0]


def volatility(states: np.ndarray, params: MarketParams, out=None) -> np.ndarray:
    """Volatility <h_k, U> of states (..., d) over any leading path and time
    axes, written into `out` if given."""
    return np.matmul(states, params.projections.T, out=out)


def vol_floor(xi, ndim: int) -> np.ndarray:
    """The floor xi / 2 of volatilities with `ndim` axes whose leading axes
    are those of `xi`, shaped to broadcast against them."""
    xi = np.asarray(xi, dtype=float)
    return 0.5 * xi.reshape(xi.shape + (1,) * (ndim - xi.ndim))


def floor_breach(v: np.ndarray, xi, floor=None) -> tuple[np.ndarray, np.ndarray]:
    """Paths with some V <= xi / 2, and V with those components replaced by 1.

    `xi` carries the leading path axes of `v`.  Below the floor the weights
    lose their integrability, so the estimators discard those paths and only
    need finite placeholder values for them; with none below the floor, `v`
    itself comes back.  `floor` is `vol_floor(xi, v.ndim)`, which a caller
    testing many `v` against one `xi` computes once.
    """
    xi = np.asarray(xi, dtype=float)
    low = v <= (vol_floor(xi, v.ndim) if floor is None else floor)
    if not np.count_nonzero(low):
        return np.zeros(low.shape[: xi.ndim], dtype=bool), v
    return np.any(low, axis=tuple(range(xi.ndim, v.ndim))), np.where(low, 1.0, v)


def theta(v: np.ndarray, premium: np.ndarray, out=None) -> np.ndarray:
    """Market price of risk (rate - b_k) / V_k, componentwise over leading
    axes, written into `out` if given.

    `premium` is the risk premium r - b: `MarketParams.premium`, of shape (d,),
    or that copied to trailing axes of `v`, say (steps, d) or the whole shape,
    which a caller dividing many `v` of one shape builds once.  All give the
    same bits; numpy runs a (d,) operand d elements at a time, 3.5-4.5x slower
    for d = 2 than one that spans the trailing axes.
    """
    return np.divide(premium, v, out=out)


def log_price_increments(v_left, dw, drift, dt: float) -> np.ndarray:
    """Left-point log-price increments (drift - V^2 / 2) dt + V dW, with drift b
    under the physical measure and r under the risk-neutral one.

    `v_left` and `dw` share a shape (..., d); `drift` is a scalar, a (d,) array
    or that copied to trailing axes of the shape, with the same bits (a copy
    is the fast one, as for `theta`).
    """
    return (drift - 0.5 * v_left**2) * dt + v_left * dw


def asset_prices(log_return: np.ndarray, params: MarketParams) -> np.ndarray:
    """Prices S(0) exp(log return); strictly positive by construction."""
    return params.initial_prices * np.exp(log_return)


def price_paths(log_incr: np.ndarray, params: MarketParams) -> np.ndarray:
    """Price paths (..., n + 1, d) on the grid from log increments (..., n, d)."""
    start = np.zeros(log_incr.shape[:-2] + (1, log_incr.shape[-1]))
    log_return = np.concatenate([start, np.cumsum(log_incr, axis=-2)], axis=-2)
    return asset_prices(log_return, params)


def log_weight(th: np.ndarray, dw: np.ndarray, dt: float) -> np.ndarray:
    """Terminal log-weight sum theta . dW - (1/2) sum |theta|^2 dt over (..., n, d)."""
    return np.sum(th * dw, axis=(-2, -1)) - 0.5 * dt * np.sum(th * th, axis=(-2, -1))


def discount_factor(t: float, params: MarketParams) -> float:
    """Exact exp(-rate * t); never a discretized account equation."""
    return math.exp(-params.rate * t)
