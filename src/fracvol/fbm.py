"""Fractional Brownian motion sampling and path-roughness diagnostics.

`sample_paths` offers two exact methods: a Cholesky factorization of the grid
covariance (O(n^3) setup, any Hurst index, the reference method; numpy's own
LAPACK factors it, so the engine loads no part of scipy but `scipy.special`)
and circulant embedding of the stationary increment sequence (FFT-based, the
fast method).
Either way, the normals of path i, component k come from the keyed stream
(cfg.seed, i, k) of :mod:`fracvol.rng`, so (seed, grid, hurst) fully determines
the output bits and a path does not depend on how many are drawn beside it.
A path is an array of shape (steps + 1, dims) whose first row is zero.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .grids import TimeGrid, is_integer
from .rng import batch_uniforms, check_seed, stream_keys
from .volterra import check_fits_in_memory

logger = logging.getLogger(__name__)

# Circulant eigenvalues more negative than this fraction of the largest one
# indicate a genuine embedding failure rather than rounding noise.
EMBEDDING_CLIP_RATIO = 1e-12
# `sample_paths` draws and transforms about this many normals at a time, which
# bounds its transient memory beside the result (a whole stack at once took
# 14 times the result's size under circulant embedding).
_DRAW_CHUNK = 1 << 16


class CirculantEmbeddingError(ArithmeticError):
    """Raised when the circulant embedding has a significantly negative eigenvalue."""


@dataclass(frozen=True)
class FbmConfig:
    """Hurst index, number of independent components, and base seed."""

    hurst: float
    dims: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_hurst(self.hurst)
        if not (is_integer(self.dims) and self.dims >= 1):
            raise ValueError(f"dims must be an integer >= 1, got {self.dims!r}")
        check_seed(self.seed)


def _check_hurst(hurst: float) -> None:
    if not (0.0 < hurst < 1.0):
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")


def fbm_cov(s, t, hurst: float):
    """Covariance (s^2H + t^2H - |t-s|^2H) / 2 of the process at times s and t."""
    _check_hurst(hurst)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise ValueError("times must be nonnegative")
    h2 = 2.0 * hurst
    # the formula's operations in its order, each result of full size taken
    # in place: two such arrays at the peak where the plain expression held three
    lag = np.abs(t - s)
    lag **= h2
    cov = s**h2 + t**h2
    cov -= lag
    cov *= 0.5
    return cov


def fgn_autocov(lag, hurst: float):
    """Autocovariance of unit-step increments: (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2."""
    _check_hurst(hurst)
    k = np.asarray(lag, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** h2 - 2.0 * np.abs(k) ** h2 + np.abs(k - 1) ** h2)


@lru_cache(maxsize=32)
def _cholesky_factor(horizon: float, steps: int, hurst: float) -> np.ndarray:
    """Lower-triangular factor of the covariance at the grid's times after 0."""
    times = np.linspace(0.0, horizon, steps + 1)[1:]
    cov = fbm_cov(times[:, None], times[None, :], hurst)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        # numpy's message says only that the matrix is not positive definite
        raise np.linalg.LinAlgError(f"fBm covariance factorization failed: {exc}") from exc
    factor.setflags(write=False)
    return factor


def _clip_eigenvalues(eigs: np.ndarray) -> np.ndarray:
    """Zero out rounding-level negative eigenvalues; reject genuine ones."""
    min_eig = float(eigs.min())
    if min_eig >= 0.0:
        return eigs
    max_eig = float(eigs.max())
    if -min_eig > EMBEDDING_CLIP_RATIO * max_eig:
        raise CirculantEmbeddingError(
            f"circulant embedding is not nonnegative definite: "
            f"minimum eigenvalue {min_eig:.6e} (maximum {max_eig:.6e})"
        )
    logger.warning(
        "clipping rounding-level negative circulant eigenvalue %.3e to zero", min_eig
    )
    return np.clip(eigs, 0.0, None)


@lru_cache(maxsize=32)
def _circulant_sqrt_eigs(steps: int, hurst: float) -> np.ndarray:
    """sqrt of the eigenvalues of the 2n circulant embedding of the fGn covariance."""
    gamma = fgn_autocov(np.arange(steps + 1), hurst)
    first_row = np.concatenate([gamma[:-1], gamma[-1:], gamma[-2:0:-1]])
    eigs = _clip_eigenvalues(np.fft.fft(first_row).real)
    root = np.sqrt(eigs)
    root.setflags(write=False)
    return root


def _wood_chan(z: np.ndarray, grid: TimeGrid, hurst: float) -> np.ndarray:
    """Paths (..., n) from 2n normals (..., 2n) by circulant embedding.

    Along the last axis, a Hermitian complex Gaussian vector shaped by the
    circulant eigenvalues is pushed through one FFT of length 2n; the first n
    outputs are the unit-step increments, scaled by dt^H and cumulatively summed.
    """
    n = grid.steps
    m = 2 * n
    root = _circulant_sqrt_eigs(n, hurst)
    coeff = np.zeros(z.shape, dtype=complex)
    coeff[..., 0] = root[0] * z[..., 0]
    coeff[..., n] = root[n] * z[..., 1]
    pair = (z[..., 2::2] + 1j * z[..., 3::2]) * (root[1:n] / np.sqrt(2.0))
    coeff[..., 1:n] = pair
    coeff[..., n + 1 :] = np.conj(pair[..., ::-1])
    fgn = np.fft.fft(coeff, axis=-1).real[..., :n] / np.sqrt(m)
    return np.cumsum(fgn, axis=-1) * grid.dt**hurst


def _cholesky(z: np.ndarray, grid: TimeGrid, hurst: float) -> np.ndarray:
    """Paths (..., n) from n normals (..., n) through the covariance factor."""
    factor = _cholesky_factor(grid.horizon, grid.steps, hurst)
    return np.matmul(factor, z[..., None])[..., 0]


# method: (paths from normals, normals per path component and grid step)
_METHODS = {"wood-chan": (_wood_chan, 2), "cholesky": (_cholesky, 1)}


def sample_paths(
    grid: TimeGrid,
    cfg: FbmConfig,
    n_paths: int,
    method: str = "wood-chan",
) -> np.ndarray:
    """Stack of independent paths, shape (n_paths, steps + 1, dims).

    Component k of path i draws its normals from the keyed stream
    (cfg.seed, i, k), so the first m paths of any stack are the stack of m.
    The normals of a block of paths are drawn in one keyed batch and the
    method runs on the whole block.  A stack, or under Cholesky the build of
    the covariance and its factor, that would not fit in the machine's
    physical memory is rejected before anything is allocated.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {sorted(_METHODS)}, got {method!r}")
    if not is_integer(n_paths):
        raise ValueError(f"n_paths must be an integer, got {n_paths!r}")
    if n_paths < 1:
        raise ValueError(f"need at least 1 path, got {n_paths}")
    paths_from, per_step = _METHODS[method]
    check_fits_in_memory(
        f"a stack of {n_paths} x {grid.steps + 1} x {cfg.dims} path values",
        int(n_paths) * (grid.steps + 1) * cfg.dims * 8,
    )
    if method == "cholesky":
        # numpy's factorization holds three steps x steps arrays: the
        # covariance, a column-major copy of it and the factor
        check_fits_in_memory(f"factoring the {grid.steps}-step covariance", 3 * grid.steps**2 * 8)
    draws = per_step * grid.steps
    out = np.zeros((n_paths, grid.steps + 1, cfg.dims))
    chunk = max(1, _DRAW_CHUNK // (draws * cfg.dims))
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        u = batch_uniforms(stream_keys(cfg.seed, range(lo, hi), range(cfg.dims)), draws)
        out[lo:hi, 1:] = paths_from(ndtri(u, out=u), grid, cfg.hurst).transpose(0, 2, 1)
    return out


def p_variation(path, p: float, component: int = 0) -> float:
    """Largest (sum |increments|^p)^(1/p) over subsequences of the grid points.

    Dynamic program over end indices: a maximizing dissection always contains
    both endpoints, so cum[j] = max_m (cum[m] + |x_j - x_m|^p) with cum[0] = 0,
    and the reported value is cum[-1]^(1/p).  This is the exact supremum over
    grid dissections and a lower bound for the continuous-time seminorm.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    x = np.asarray(path, dtype=float)
    if x.ndim == 2:
        x = x[:, component]
    n = x.size
    if n < 2:
        return 0.0
    cum = np.zeros(n)
    for j in range(1, n):
        cum[j] = np.max(cum[:j] + np.abs(x[j] - x[:j]) ** p)
    return float(cum[-1] ** (1.0 / p))
