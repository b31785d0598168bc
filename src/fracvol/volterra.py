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
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .grids import TimeGrid


# spread(fill, counts) runs fill(lo, hi) for runs of rows lo..hi-1, where row i
# holds counts[i] cells; see `_spread`
_Spread = Callable[[Callable[[int, int], None], Sequence[int]], None]


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
    """`scipy.special.hyp2f1` elementwise, or HypergeometricError naming the
    first argument, in C order, whose value is not finite."""
    values = np.asarray(special.hyp2f1(a, b, c, z))
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


def _kernel_values(t: np.ndarray, s: np.ndarray, hurst: float) -> np.ndarray:
    """Vectorized kernel on 0 < s < t (no indicator handling)."""
    return _kernel_of_gap(t - s, 1.0 - t / s, hurst)


def _kernel_of_gap(gap, z, hurst: float) -> np.ndarray:
    """The kernel c_H (t - s)^(H - 1/2) / Gamma(H + 1/2) 2F1(1/2 - H, H - 1/2; H + 1/2; z)
    from the gap t - s and the argument z = 1 - t/s, however each is computed.

    c_H = sqrt(2H Gamma(3/2 - H) Gamma(H + 1/2) / Gamma(2 - 2H)), exactly 1 at
    H = 1/2, makes the transform of a standard Brownian motion a standard fBm,
    of variance t^(2H) (Decreusefond & Ustunel, Potential Anal. 1999).
    """
    c_h = math.sqrt(2 * hurst * math.gamma(1.5 - hurst) * math.gamma(hurst + 0.5)
                    / math.gamma(2 - 2 * hurst))
    scale = c_h / math.gamma(hurst + 0.5)
    return scale * gap ** (hurst - 0.5) * _hyp2f1(0.5 - hurst, hurst - 0.5, hurst + 0.5, z)


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
    memory is rejected before anything is allocated.  The build works a
    slice of whole rows at a time (at most `_SLICE_CELLS` cells, or one
    row): a slice of the midpoint cells forms its cells' times, gaps and
    2F1 arguments and writes their kernel values into the matrix, and a
    slice of the first column's or the diagonal's quadrature, 79 nodes per
    row, writes its nodes' kernel values into an array that is then summed
    in one product.  Beside the matrix the build holds those arrays and a
    slice per thread, so what it needs grows only linearly with steps (a
    traced peak of 9.3 MiB for the 8 MiB matrix at 1024 steps, with or
    without the pool).

    A cold build of at least `_POOL_CELLS` cells hands its slices to every
    core this process may run on, through a thread pool that lives as long
    as the build; smaller grids take the same slices on the calling thread.
    The entries have the same bits either way.
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
    stay meaningful.  `spread` evaluates the nodes a run of targets at a time
    (all at once without it); the weighted sum is one product over all of them.
    """
    x, xc, w = _tanh_sinh_unit()
    t = np.asarray(t, dtype=float)[:, None]
    lo = np.broadcast_to(np.asarray(lo, dtype=float).reshape(-1, 1), t.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float).reshape(-1, 1), t.shape)
    values = np.empty((t.shape[0], x.size))

    def fill(start: int, stop: int) -> None:
        rows = slice(start, stop)
        width = hi[rows] - lo[rows]
        s = lo[rows] + width * x
        gap = (t[rows] - hi[rows]) + width * xc
        values[rows] = _kernel_of_gap(gap, -gap / s, hurst)

    if spread is None:
        fill(0, len(values))
    else:
        spread(fill, [x.size] * len(values))
    return values ** 2 @ w


# Within this distance of hurst = 1/2 the edge singularities are negligible
# (their exponents vanish), so plain midpoint collocation is used for every
# cell; at hurst = 1/2 that keeps every entry exactly 1, which the quadrature
# of the edge cells would not.
_NEAR_HALF_BAND = 0.025

# Builds of fewer lower-triangle cells than this stay on the calling thread,
# where handing slices to a pool costs more than a second core saves.  On 2
# vCPU (median of 21 builds in each of six alternating fresh processes) the
# pool lost at 64 steps (2,080 cells: 3.3 against 2.9 ms) and 96 (4,656: 4.9
# against 4.5 ms); at 128 (8,256) the two were level within the host's spread
# (medians over two rounds 5.4 and 5.5 ms, against 5.2 and 8.6 on one thread).
_POOL_CELLS = 2**13

# Cells per slice of a kernel build, unless one row holds more: 2^12 doubles
# are 32 KiB of each argument and value.
_SLICE_CELLS = 2**12


def _build_helpers(steps: int) -> int:
    """Pool threads beside the calling thread for a cold build: one per further
    core this process may run on, or none below `_POOL_CELLS` cells."""
    if steps * (steps + 1) // 2 < _POOL_CELLS:
        return 0
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


def _spread(fill: Callable[[int, int], None], counts: Sequence[int],
            pool: ThreadPoolExecutor | None = None, helpers: int = 0) -> None:
    """Run fill(lo, hi) for consecutive runs of rows lo..hi-1, where row i holds
    counts[i] cells, each run of at most `_SLICE_CELLS` cells or one row, on
    the calling thread and `helpers` of the pool's threads, each taking the
    next run when it has finished one.  Once every thread is done, raise the
    HypergeometricError of the first run, in row order, that raised one, so
    that which thread took which run never shows."""
    starts, held = [], math.inf
    for row, count in enumerate(counts):
        if held + count > _SLICE_CELLS:
            starts.append(row)
            held = 0
        held += count
    runs = zip(starts, starts[1:] + [len(counts)])  # the GIL makes each next() atomic
    failed: dict[int, HypergeometricError] = {}

    def drain() -> None:
        for lo, hi in runs:
            try:
                fill(lo, hi)
            except HypergeometricError as error:
                failed[lo] = error
                return

    running = [pool.submit(drain) for _ in range(helpers)]
    drain()
    for task in running:
        task.result()
    if failed:
        raise failed[min(failed)]


@lru_cache(maxsize=8)
def _kernel_matrix_cached(horizon: float, steps: int, hurst: float) -> KernelMatrix:
    """The kernel matrix, built with a thread pool that is joined before it
    returns, or on the calling thread alone where `_build_helpers` gives none."""
    helpers = _build_helpers(steps)
    if not helpers:
        return _fill_kernel_matrix(horizon, steps, hurst, _spread)
    with ThreadPoolExecutor(helpers, thread_name_prefix="fracvol-kernel") as pool:
        return _fill_kernel_matrix(horizon, steps, hurst,
                                   partial(_spread, pool=pool, helpers=helpers))


def _fill_kernel_matrix(horizon: float, steps: int, hurst: float,
                        spread: _Spread) -> KernelMatrix:
    grid = TimeGrid(horizon, steps)
    dt = grid.dt
    targets = grid.times[1:]
    mids = grid.times[:-1] + 0.5 * dt
    entries = np.zeros((steps, steps))
    near_half = abs(hurst - 0.5) < _NEAR_HALF_BAND
    # near 1/2 every cell is a midpoint cell; otherwise the first column and
    # the diagonal are filled below.  Slice row k is matrix row 2 first + k,
    # whose midpoint cells are first <= j <= first + k; a slice gathers their
    # times and writes their values through its rows' lower-triangle mask.
    first = 0 if near_half else 1

    def fill(lo: int, hi: int) -> None:
        inside = np.tri(hi - lo, hi, lo, dtype=bool)
        rows, cols = slice(lo + 2 * first, hi + 2 * first), slice(first, hi + first)
        t = np.broadcast_to(targets[rows, None], inside.shape)[inside]
        s = np.broadcast_to(mids[cols], inside.shape)[inside]
        entries[rows, cols][inside] = _kernel_values(t, s, hurst)

    spread(fill, range(1, steps - 2 * first + 1))
    if not near_half:
        # first column: cells (0, dt]
        entries[:, 0] = np.sqrt(_cell_mean_square(targets, 0.0, dt, hurst, spread))
        # diagonal cells (t_i - dt, t_i]
        diag_sq = _cell_mean_square(targets[1:], targets[1:] - dt, targets[1:], hurst, spread)
        np.fill_diagonal(entries[1:, 1:], np.sqrt(diag_sq))
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
