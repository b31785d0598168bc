"""Volterra kernel linking the Brownian driver to its long-memory transform.

The kernel at (t, s) is a power-law factor times a Gauss hypergeometric factor,
evaluated by `scipy.special.hyp2f1`, and vanishes for s >= t.  Discretized on a
uniform grid it becomes a lower triangular matrix acting on Brownian
increments, collocated at the midpoint of each source interval (which keeps
the singular argument at s = 0 out of reach and reduces bias near the
diagonal).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np
from scipy import special

from .grids import TimeGrid


# spread(fill, cells) runs fill(lo) for each slice of cells starting at lo; see `_spread`
_Spread = Callable[[Callable[[int], None], int], None]


class HypergeometricError(ArithmeticError):
    """Raised when the hypergeometric function evaluates to a value that is not finite."""


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real parameters, z <= 0.

    Evaluated by `scipy.special.hyp2f1`; raises HypergeometricError if the
    value is not finite.
    """
    if c <= 0 and float(c).is_integer():
        raise ValueError(f"c must not be a non-positive integer, got {c}")
    if z > 0:
        raise ValueError(f"argument must satisfy z <= 0, got {z}")
    return float(_hyp2f1(a, b, c, z))


def _hyp2f1(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """`scipy.special.hyp2f1` elementwise, checked to be finite everywhere."""
    return _finite_2f1(a, b, c, z, np.asarray(special.hyp2f1(a, b, c, z)))


def _finite_2f1(a: float, b: float, c: float, z: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The 2F1 values at z, or HypergeometricError naming the first argument, in
    C order, whose value is not finite."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        at = float(np.broadcast_to(z, values.shape)[bad][0])
        raise HypergeometricError(f"2F1({a!r}, {b!r}; {c!r}; z) is not finite at z = {at!r}")
    return values


def kernel_K(t: float, s: float, hurst: float) -> float:
    """Kernel value at target time t and source time s; zero when s >= t.

    The source time must be strictly positive: the hypergeometric argument
    1 - t/s is undefined at s = 0, which the midpoint collocation below never
    produces.
    """
    if not (0.0 < hurst < 1.0):
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if s <= 0:
        raise ValueError(f"source time must be positive, got s = {s}")
    if s >= t:
        return 0.0
    return float(_kernel_values(np.asarray(t, float), np.asarray(s, float), hurst))


def _kernel_values(t: np.ndarray, s: np.ndarray, hurst: float,
                   spread: _Spread | None = None) -> np.ndarray:
    """Vectorized kernel on 0 < s < t (no indicator handling)."""
    return _kernel_of_gap(t - s, 1.0 - t / s, hurst, spread)


def _kernel_of_gap(gap, z, hurst: float, spread: _Spread | None = None) -> np.ndarray:
    """The kernel c_H (t - s)^(H - 1/2) / Gamma(H + 1/2) 2F1(1/2 - H, H - 1/2; H + 1/2; z)
    from the gap t - s and the argument z = 1 - t/s, however each is computed.

    c_H = sqrt(2H Gamma(3/2 - H) Gamma(H + 1/2) / Gamma(2 - 2H)), exactly 1 at
    H = 1/2, makes the transform of a standard Brownian motion a standard fBm,
    of variance t^(2H) (Decreusefond & Ustunel, Potential Anal. 1999).
    """
    c_h = math.sqrt(2 * hurst * math.gamma(1.5 - hurst) * math.gamma(hurst + 0.5)
                    / math.gamma(2 - 2 * hurst))
    scale = c_h / math.gamma(hurst + 0.5)
    a, b, c = 0.5 - hurst, hurst - 0.5, hurst + 0.5
    if spread is None:
        factor = _hyp2f1(a, b, c, z)
        return scale * gap ** (hurst - 0.5) * factor
    # the calling thread and the pool's take `_SLICE_CELLS` cells at a time and
    # write them with the same ufuncs, in the same order, into arrays allocated here
    factor, values = np.empty(np.shape(z)), np.empty(np.shape(z))
    flat = [np.reshape(array, -1) for array in (gap, z, factor, values)]

    def fill(lo: int) -> None:
        gap_, z_, factor_, values_ = (array[lo:lo + _SLICE_CELLS] for array in flat)
        special.hyp2f1(a, b, c, z_, out=factor_)
        np.power(gap_, hurst - 0.5, out=values_)
        np.multiply(scale, values_, out=values_)
        np.multiply(values_, factor_, out=values_)

    spread(fill, values.size)
    _finite_2f1(a, b, c, z, factor)
    return values


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Lower-triangular kernel collocation: entry (i, j) represents the kernel
    at target time t_{i+1} over the source interval (t_j, t_{j+1}].

    Interior cells use the kernel value at the interval midpoint.  The two
    singular cells of each row -- the first interval, where the kernel behaves
    like s^(1/2-H), and the diagonal interval, where it behaves like
    (t-s)^(H-1/2) -- instead carry the root mean square of the kernel over the
    cell, computed by a fixed double-exponential rule that absorbs the edge
    singularities.  A plain midpoint value misstates the path variance by
    several percent there, which the covariance checks resolve.
    """

    grid: TimeGrid
    hurst: float
    entries: np.ndarray


def build_kernel_matrix(grid: TimeGrid, hurst: float) -> KernelMatrix:
    """Kernel matrix for the grid, cached per (horizon, steps, hurst).

    A grid whose steps x steps matrix would not fit in the machine's physical
    memory is rejected before anything is allocated.  Beside the matrix the
    build holds the midpoint cells of one block of whole rows at a time (at
    most `_BAND_CELLS` cells, or one row), then the quadrature of the
    first column and the diagonal, 79 nodes per row, so what it needs beyond
    the matrix grows only linearly with steps (a traced peak of 11.6 MiB for
    the 8 MiB matrix at 1024 steps, 11.7 MiB with the pool).

    A cold build of at least `_POOL_CELLS` cells evaluates each block's and
    each quadrature's kernel values on every core this process may run on,
    through a thread pool that lives as long as the build; smaller grids
    stay on the calling thread.  The entries have the same bits either way.
    """
    if not (0.0 < hurst < 1.0):
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    check_fits_in_memory(f"a {grid.steps}-step kernel matrix", grid.steps**2 * 8)
    return _kernel_matrix_cached(grid.horizon, grid.steps, hurst)


def check_fits_in_memory(what: str, need: int) -> None:
    """Raise ValueError if `need` bytes exceed the machine's physical memory."""
    memory = _physical_memory_bytes()
    if memory is not None and need > memory:
        raise ValueError(
            f"{what} needs {need / 2**30:.1f} GiB, more than "
            f"the {memory / 2**30:.1f} GiB of physical memory on this machine"
        )


def _physical_memory_bytes() -> int | None:
    """Physical memory size, or None where the system does not report it."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


@lru_cache(maxsize=4)
def _tanh_sinh_unit(step: float = 0.08) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Double-exponential nodes, exact complements, and weights on (0, 1).

    The variable change x = (1 + tanh(pi/2 sinh(tau)))/2 pushes both endpoints
    infinitely far away, so algebraic edge singularities of any (integrable)
    order are integrated at near-spectral accuracy with a fixed rule.  The
    complements 1 - x are the reversed nodes (the rule is symmetric), which
    keeps them exact down to 1e-23 instead of rounding to zero.  The nodes
    are tau = k * step, |tau| <= 3.2, so halving the step keeps every node.
    """
    tau = np.arange(-round(3.2 / step), round(3.2 / step) + 1) * step
    arg = 0.5 * np.pi * np.sinh(tau)
    x = 0.5 * (1.0 + np.tanh(arg))
    weight = step * 0.25 * np.pi * np.cosh(tau) / np.cosh(arg) ** 2
    keep = (x > 0.0) & (x < 1.0) & (x[::-1] > 0.0) & (weight > 0.0)
    keep &= keep[::-1]  # nodes round to 1 sooner than to 0 at some steps
    return x[keep], x[keep][::-1], weight[keep]


def _cell_mean_square(t: np.ndarray, lo, hi, hurst: float,
                      spread: _Spread | None = None) -> np.ndarray:
    """(1/(hi-lo)) * integral of K(t, s)^2 over [lo, hi] for each target time.

    Targets must satisfy t >= hi; edge singularities at s = 0 or s = t are
    absorbed by the double-exponential rule.  The kernel is evaluated from the
    source time s = lo + width x and the cancellation-free gap
    t - s = (t - hi) + width (1 - x), so nodes within 1e-23 of either edge
    stay meaningful.
    """
    x, xc, w = _tanh_sinh_unit()
    t = np.asarray(t, dtype=float)[:, None]
    lo = np.asarray(lo, dtype=float).reshape(-1, 1)
    hi = np.asarray(hi, dtype=float).reshape(-1, 1)
    width = hi - lo
    s = lo + width * x[None, :]
    gap = (t - hi) + width * xc[None, :]
    return _kernel_of_gap(gap, -gap / s, hurst, spread) ** 2 @ w


# Within this distance of hurst = 1/2 the edge singularities are negligible
# (their exponents vanish), so plain midpoint collocation is used for every
# cell; at hurst = 1/2 that keeps every entry exactly 1, which the quadrature
# of the edge cells would not.
_NEAR_HALF_BAND = 0.025

# Midpoint cells evaluated together: 2^15 doubles are 256 KiB per temporary.
_BAND_CELLS = 2**15


# Builds of fewer lower-triangle cells than this stay on the calling thread,
# where handing slices to a pool costs more than a second core saves.  On 2
# vCPU the pool lost at 64 steps (2,080 cells: 1.9-2.3 against 1.7-2.0 ms),
# drew level at 96 (4,656) and won at 128 (8,256: 2.9-3.3 against 4.1-4.2 ms).
_POOL_CELLS = 2**13

# Cells per slice of a pooled kernel evaluation: 2^12 doubles are 32 KiB of
# each argument and value.
_SLICE_CELLS = 2**12


def _build_helpers(steps: int) -> int:
    """Pool threads beside the calling thread for a cold build: one per further
    core this process may run on, or none below `_POOL_CELLS` cells."""
    if steps * (steps + 1) // 2 < _POOL_CELLS:
        return 0
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


def _spread(pool: ThreadPoolExecutor, helpers: int, fill: Callable[[int], None],
            cells: int) -> None:
    """Run fill(lo) for every slice lo = 0, `_SLICE_CELLS`, ... below cells on
    the calling thread and `helpers` of the pool's threads, each taking the
    next slice when it has finished one; return once every slice is done."""
    slices = iter(range(0, cells, _SLICE_CELLS))  # the GIL makes each next() atomic

    def drain() -> None:
        for lo in slices:
            fill(lo)

    running = [pool.submit(drain) for _ in range(helpers)]
    drain()
    for task in running:
        task.result()


@lru_cache(maxsize=8)
def _kernel_matrix_cached(horizon: float, steps: int, hurst: float) -> KernelMatrix:
    """The kernel matrix, built with a thread pool that is joined before it
    returns, or on the calling thread alone where `_build_helpers` gives none."""
    helpers = _build_helpers(steps)
    if not helpers:
        return _fill_kernel_matrix(horizon, steps, hurst, None)
    with ThreadPoolExecutor(helpers, thread_name_prefix="fracvol-kernel") as pool:
        return _fill_kernel_matrix(horizon, steps, hurst, partial(_spread, pool, helpers))


def _fill_kernel_matrix(horizon: float, steps: int, hurst: float,
                        spread: _Spread | None) -> KernelMatrix:
    grid = TimeGrid(horizon, steps)
    dt = grid.dt
    targets = grid.times[1:]
    mids = grid.times[:-1] + 0.5 * dt
    entries = np.zeros((steps, steps))
    near_half = abs(hurst - 0.5) < _NEAR_HALF_BAND
    # near 1/2 every cell is a midpoint cell; otherwise the first column and
    # the diagonal are filled below.  Row i's midpoint cells are
    # first <= j <= i - first, filled a block of whole rows at a time: at
    # most `_BAND_CELLS` cells, or one row where a row holds more.
    first = 0 if near_half else 1
    block = max(1, _BAND_CELLS // steps)
    for lo in range(2 * first, steps, block):
        hi = min(lo + block, steps)
        rows, cols = np.nonzero(np.tri(hi - lo, hi - 2 * first, lo - 2 * first, dtype=bool))
        rows += lo
        cols += first
        entries[rows, cols] = _kernel_values(targets[rows], mids[cols], hurst, spread)
    if near_half:
        entries.setflags(write=False)
        return KernelMatrix(grid, hurst, entries)
    # first column: cells (0, dt]
    entries[:, 0] = np.sqrt(_cell_mean_square(targets, 0.0, dt, hurst, spread))
    if steps > 1:
        # diagonal cells (t_i - dt, t_i]
        diag_sq = _cell_mean_square(targets[1:], targets[1:] - dt, targets[1:], hurst, spread)
        entries[np.arange(1, steps), np.arange(1, steps)] = np.sqrt(diag_sq)
    entries.setflags(write=False)
    return KernelMatrix(grid, hurst, entries)


def transform_increments(dw: np.ndarray, kernel: KernelMatrix) -> np.ndarray:
    """Batched transform of increments (..., n, d) into path values (..., n+1, d).

    Componentwise, B(t_i) = sum_{j<=i} kernel[i-1, j-1] dW_j, with B(0) = 0.  For
    hurst = 1/2 every stored entry is 1 and the sum telescopes back to W.
    Raises ValueError unless the increments have the kernel's steps.
    """
    dw = np.asarray(dw, dtype=float)
    steps = dw.shape[-2] if dw.ndim >= 2 else None
    if steps != kernel.grid.steps:
        raise ValueError(
            f"grid mismatch: increments on {steps} steps (shape {dw.shape}), "
            f"kernel on {kernel.grid.steps} steps"
        )
    body = np.matmul(kernel.entries, dw)
    head = np.zeros(body.shape[:-2] + (1, body.shape[-1]))
    return np.concatenate([head, body], axis=-2)
