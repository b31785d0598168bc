"""Volterra kernel linking the Brownian driver to its long-memory transform.

The kernel at (t, s) is a power-law factor times a Gauss hypergeometric factor
and vanishes for s >= t.  Discretized on a uniform grid it becomes a lower
triangular matrix acting on Brownian increments, collocated at the midpoint of
each source interval (which keeps the singular argument at s = 0 out of reach
and reduces bias near the diagonal).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import TimeGrid

_SERIES_RTOL = 1e-16
_SERIES_MAX_TERMS = 100_000


class HypergeometricError(ArithmeticError):
    """Raised when the hypergeometric series fails to converge within the term cap."""


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real parameters, z <= 0.

    The argument is mapped to w = z/(z-1) in [0, 1), which keeps the series
    convergent for arbitrarily negative z, and the transformed series is summed
    until its geometric tail bound drops below 1e-16 relative.
    """
    if c <= 0 and float(c).is_integer():
        raise ValueError(f"c must not be a non-positive integer, got {c}")
    if z > 0:
        raise ValueError(f"argument must satisfy z <= 0, got {z}")
    return float(_hyp2f1_mapped(a, b, c, np.asarray(z, dtype=float)))


_LARGE_Z_SWITCH = -60.0


def _hyp2f1_mapped(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """Vectorized evaluation for z <= 0.

    Moderate arguments map to w = z/(z-1) in [0, 1) and sum the transformed
    series.  Deeply negative arguments (z < -60, where that series needs tens
    of thousands of terms) switch to the 1/z connection formula instead, except
    within the a - b near-integer band where its gamma prefactors degenerate.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    gap = abs(a - b - round(a - b))
    deep = (z < _LARGE_Z_SWITCH) if gap >= 0.05 else np.zeros(z.shape, bool)
    if np.any(deep):
        out[deep] = _hyp2f1_large_neg(a, b, c, z[deep])
    rest = ~deep
    if np.any(rest):
        zr = z[rest]
        w = zr / (zr - 1.0)
        out[rest] = (1.0 - zr) ** (-a) * _series(a, c - b, c, w)
    return out[0] if scalar else out


def _hyp2f1_large_neg(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """Connection formula at 1/z for z << 0 and a - b not an integer."""
    if a == 0.0 or b == 0.0:
        return np.ones_like(z)
    g1 = math.gamma(c) * math.gamma(b - a) / (math.gamma(b) * math.gamma(c - a))
    g2 = math.gamma(c) * math.gamma(a - b) / (math.gamma(a) * math.gamma(c - b))
    x = 1.0 / z
    lead_a = g1 * (-z) ** (-a) * _series(a, 1.0 - c + a, 1.0 - b + a, x)
    lead_b = g2 * (-z) ** (-b) * _series(b, 1.0 - c + b, 1.0 - a + b, x)
    return lead_a + lead_b


# Arguments summed together by `_series`: 2^15 doubles are 256 KiB per buffer.
_SERIES_CHUNK = 2**15


def _series(a: float, b: float, c: float, w) -> np.ndarray:
    """Sum_k (a)_k (b)_k / ((c)_k k!) w^k elementwise for |w| < 1.

    Arguments are summed largest |w| first, in chunks of `_SERIES_CHUNK`, so
    that the elements of a chunk need similar numbers of terms.  The order
    moves no bits: each element takes the same terms, partial sums and
    stopping test, in the same floating-point operations, as when summed alone.
    """
    w = np.asarray(w, dtype=float)
    flat = w.ravel()
    order = np.argsort(-np.abs(flat))
    sums = np.empty(flat.size)
    for start in range(0, flat.size, _SERIES_CHUNK):
        pick = order[start : start + _SERIES_CHUNK]
        sums[pick] = _series_chunk(a, b, c, flat[pick])
    return sums[0] if w.ndim == 0 else sums.reshape(w.shape)


def _series_chunk(a: float, b: float, c: float, w: np.ndarray) -> np.ndarray:
    """`_series` of a 1-D chunk, updated in place over a shrinking active prefix.

    An element that passes the stopping test leaves the prefix [:n]; one that
    finishes ahead of elements behind it swaps places with one of them.
    """
    n = w.size
    # while |ratio| <= 1, max(|w|, |ratio| |w|) is |w| exactly, so the tail
    # ratio q and the threshold rtol (1 - q) are fixed per element; above 1,
    # the capped |w| gives the same q as |w| itself
    q_fixed = np.minimum(np.abs(w), 1.0 - 1e-12)
    tol_fixed = _SERIES_RTOL * (1.0 - q_fixed)
    t, s, pos = np.ones(n), np.ones(n), np.arange(n)
    step, rhs, done = np.empty(n), np.empty(n), np.empty(n, bool)
    out = np.empty(n)
    k = 0
    while n:
        if k >= _SERIES_MAX_TERMS:
            worst = int(np.argmax(np.abs(t[:n])))
            raise HypergeometricError(
                f"series did not converge within {_SERIES_MAX_TERMS} terms: "
                f"last term {t[worst]:.3e}, partial sum {s[worst]:.8e}, "
                f"mapped argument w = {w[worst]:.8f}"
            )
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0))
        np.multiply(ratio, w[:n], out=step[:n])
        np.multiply(t[:n], step[:n], out=t[:n])
        np.add(s[:n], t[:n], out=s[:n])
        k += 1
        # geometric tail bound with common ratio q per entry
        if abs(ratio) <= 1.0:
            q, tol = q_fixed[:n], tol_fixed[:n]
        else:
            qw = q_fixed[:n]
            q = np.minimum(np.maximum(qw, np.abs(ratio) * qw), 1.0 - 1e-12)
            tol = _SERIES_RTOL * (1.0 - q)
        np.multiply(np.abs(t[:n], out=step[:n]), q, out=step[:n])
        np.multiply(tol, np.abs(s[:n], out=rhs[:n]), out=rhs[:n])
        np.less_equal(step[:n], rhs[:n], out=done[:n])
        if not np.count_nonzero(done[:n]):
            continue
        finished = np.flatnonzero(done[:n])
        out[pos[finished]] = s[finished]
        last, n = n, n - finished.size
        holes = finished[finished < n]
        if holes.size:
            movers = n + np.flatnonzero(~done[n:last])
            for buf in (w, q_fixed, tol_fixed, t, s, pos):
                buf[holes] = buf[movers]
    return out


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
    """The kernel (t - s)^(H - 1/2) / Gamma(H + 1/2) 2F1(1/2 - H, H - 1/2; H + 1/2; z)
    from the gap t - s and the argument z = 1 - t/s, however each is computed."""
    factor = _hyp2f1_mapped(0.5 - hurst, hurst - 0.5, hurst + 0.5, z)
    return gap ** (hurst - 0.5) / math.gamma(hurst + 0.5) * factor


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
    build holds one band of about `_SERIES_CHUNK` midpoint cells at a time,
    then the quadrature of the first column and the diagonal, 79 nodes per
    row, so what it needs beyond the matrix grows only linearly with steps (a
    traced peak of 17.1 MiB for the 8 MiB matrix at 1024 steps).
    """
    if not (0.0 < hurst < 1.0):
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    need = grid.steps**2 * 8
    memory = _physical_memory_bytes()
    if memory is not None and need > memory:
        raise ValueError(
            f"a {grid.steps}-step kernel matrix needs {need / 2**30:.1f} GiB, more than "
            f"the {memory / 2**30:.1f} GiB of physical memory on this machine"
        )
    return _kernel_matrix_cached(grid.horizon, grid.steps, hurst)


def _physical_memory_bytes() -> int | None:
    """Physical memory size, or None where the system does not report it."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


@lru_cache(maxsize=1)
def _tanh_sinh_unit() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Double-exponential nodes, exact complements, and weights on (0, 1).

    The variable change x = (1 + tanh(pi/2 sinh(tau)))/2 pushes both endpoints
    infinitely far away, so algebraic edge singularities of any (integrable)
    order are integrated at near-spectral accuracy with a fixed rule.  The
    complements 1 - x are the reversed nodes (the rule is symmetric), which
    keeps them exact down to 1e-23 instead of rounding to zero.
    """
    step = 0.08
    tau = np.arange(-40, 41) * step
    arg = 0.5 * np.pi * np.sinh(tau)
    x = 0.5 * (1.0 + np.tanh(arg))
    weight = step * 0.25 * np.pi * np.cosh(tau) / np.cosh(arg) ** 2
    keep = (x > 0.0) & (x < 1.0) & (x[::-1] > 0.0) & (weight > 0.0)
    return x[keep], x[keep][::-1], weight[keep]


def _cell_mean_square(t: np.ndarray, lo, hi, hurst: float) -> np.ndarray:
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
    return _kernel_of_gap(gap, -gap / s, hurst) ** 2 @ w


# Within this distance of hurst = 1/2 the edge singularities are negligible
# (their exponents vanish) and the large-argument continuation degenerates,
# so plain midpoint collocation is used for every cell.
_NEAR_HALF_BAND = 0.025


def _midpoint_bands(steps: int, first: int):
    """(rows, cols) of the cells first <= j <= i - first, one s/t band at a time.

    Band b of n takes the b-th of n near-equal slices of each row's columns,
    so its cells share a range of s/t = 1 - |w|.  n is the fewest bands whose
    slices, each rounded up, fit in one `_series` chunk: the build holds one
    band's temporaries, never the whole triangle's.
    """
    rows = np.arange(2 * first, steps)
    width = rows + 1 - 2 * first
    n = -(-int(width.sum()) // _SERIES_CHUNK)
    while n < width.max(initial=0) and np.sum(-(-width // n)) > _SERIES_CHUNK:
        n += 1
    for b in range(n):
        lo = first + b * width // n
        count = first + (b + 1) * width // n - lo
        offsets = np.repeat(lo - (np.cumsum(count) - count), count)
        yield np.repeat(rows, count), np.arange(offsets.size) + offsets


@lru_cache(maxsize=8)
def _kernel_matrix_cached(horizon: float, steps: int, hurst: float) -> KernelMatrix:
    grid = TimeGrid(horizon, steps)
    dt = grid.dt
    targets = grid.times[1:]
    mids = grid.times[:-1] + 0.5 * dt
    entries = np.zeros((steps, steps))
    near_half = abs(hurst - 0.5) < _NEAR_HALF_BAND
    # near 1/2 every cell is a midpoint cell; otherwise the first column and
    # the diagonal are filled below
    for rows, cols in _midpoint_bands(steps, first=0 if near_half else 1):
        entries[rows, cols] = _kernel_values(targets[rows], mids[cols], hurst)
    if near_half:
        entries.setflags(write=False)
        return KernelMatrix(grid, hurst, entries)
    # first column: cells (0, dt]
    entries[:, 0] = np.sqrt(_cell_mean_square(targets, 0.0, dt, hurst))
    if steps > 1:
        # diagonal cells (t_i - dt, t_i]
        diag_sq = _cell_mean_square(targets[1:], targets[1:] - dt, targets[1:], hurst)
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
