"""Explicit Euler scheme for the state equation driven by a long-memory path.

The scheme is the plain first-order update
    U(t_{i+1}) = U(t_i) + mu(xi, U(t_i)) dt + sigma(xi, U(t_i)) (B(t_{i+1}) - B(t_i))
and is only meaningful in the Young regime hurst > 1/2, which `require_young`
enforces.  The coefficients are the affine family of `coefficients`, so a step
is a few matrix products on the whole batch (`euler_stepper`).  No projection
onto a constraint set is applied by default; callers needing hard feasibility
can pass `project_onto`, which applies a Euclidean projection onto the
polyhedron after every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import ModelCoefficients
from .fbm import FbmConfig, wood_chan_sample
from .grids import SamplePath, TimeGrid
from .rng import RandomSource
from .viability import Polyhedron, project_into


def require_young(hurst: float) -> None:
    """Reject a Hurst index outside the Young regime (1/2, 1) the scheme needs."""
    if not (0.5 < hurst < 1.0):
        raise ValueError(
            f"rough regime unsupported: hurst must lie in (1/2, 1), got {hurst}"
        )


@dataclass(frozen=True, eq=False)
class SolveConfig:
    """Initial state, Hurst index of the driver, and grid for one solve."""

    initial: np.ndarray
    hurst: float
    grid: TimeGrid

    def __post_init__(self):
        initial = np.atleast_1d(np.asarray(self.initial, dtype=float))
        if not np.all(np.isfinite(initial)):
            raise ValueError("initial state must be finite")
        object.__setattr__(self, "initial", initial)
        require_young(self.hurst)


def euler_stepper(coeffs: ModelCoefficients, xi, dt: float, project_onto=None):
    """The Euler update `step(x, db)` of states x (paths, d) by driver increments
    db (paths, d), then the projection onto `project_onto`, a (normals, offsets)
    pair, if given.  What does not change between steps is computed here, once
    per batch; a step returns a fresh array and leaves its arguments unchanged."""
    drift_t, weights_t = coeffs.drift_matrix.T, coeffs.weights.T
    drift_shift = np.multiply.outer(xi, coeffs.xi_drift)
    factor_shift = np.multiply.outer(xi, coeffs.xi_weights)

    def advance(x, db):
        # eval_mu and eval_sigma term for term, in place in fresh buffers
        mu = x @ drift_t
        mu += drift_shift
        mu += coeffs.drift_const
        mu *= dt
        factors = x @ weights_t
        factors += factor_shift
        factors += coeffs.offsets
        factors *= db
        mu += x
        mu += factors @ coeffs.directions
        return mu

    if project_onto is None:
        return advance
    normals, offsets = project_onto
    sq_norms = np.einsum("kd,kd->k", normals, normals)
    return lambda x, db: project_into(advance(x, db), normals, offsets, sq_norms)


def check_finite(x: np.ndarray, step: int) -> None:
    """Raise FloatingPointError, naming the step and the first bad path, unless
    every state of the batch x (paths, d) is finite.  Both time-stepping loops
    run under np.errstate(over="ignore", invalid="ignore") and leave overflow
    to this check."""
    if not np.isfinite(x).all():
        bad = int(np.nonzero(~np.isfinite(x).all(axis=1))[0][0])
        raise FloatingPointError(
            f"state became non-finite at step {step} (path {bad} of the batch)"
        )


def euler_paths(
    coeffs: ModelCoefficients,
    xi,
    db: np.ndarray,
    initial: np.ndarray,
    dt: float,
    project_onto: Polyhedron | tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Batched Euler recursion: db has shape (paths, n, d), xi scalar or (paths,).

    Returns states of shape (paths, n + 1, d).  `project_onto` may be a
    polyhedron, or a (normals, offsets) pair whose offsets carry a leading
    paths axis so each path can have its own constraint levels.  Raises as
    soon as any state stops being finite, naming the offending step.
    """
    db = np.asarray(db, dtype=float)
    paths, n, d = db.shape
    out = np.empty((paths, n + 1, d))
    x = np.broadcast_to(np.asarray(initial, dtype=float), (paths, d)).copy()
    if isinstance(project_onto, Polyhedron):
        project_onto = (project_onto.normals, project_onto.offsets)
    step = euler_stepper(coeffs, xi, dt, project_onto)
    out[:, 0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            x = step(x, db[:, i])
            check_finite(x, i + 1)
            out[:, i + 1] = x
    return out


def euler_solve(
    coeffs: ModelCoefficients,
    xi: float,
    driver: SamplePath,
    cfg: SolveConfig,
    project_onto: Polyhedron | None = None,
) -> SamplePath:
    """Solve one path of the state equation along the given driver."""
    if driver.grid != cfg.grid:
        raise ValueError(f"grid mismatch: driver on {driver.grid}, config on {cfg.grid}")
    if np.any(driver.values[0] != 0.0):
        raise ValueError("driver must start at 0")
    if driver.dims != cfg.initial.size:
        raise ValueError(
            f"driver has {driver.dims} components but the initial state has {cfg.initial.size}"
        )
    states = euler_paths(
        coeffs, xi, driver.increments()[None], cfg.initial, cfg.grid.dt, project_onto
    )
    return SamplePath(cfg.grid, states[0])


def convergence_probe(
    coeffs: ModelCoefficients,
    xi: float,
    cfg: SolveConfig,
    seed: int,
    levels: int = 4,
) -> list[tuple[float, float]]:
    """Self-convergence of the scheme under dyadic refinement of a frozen driver.

    The driver is sampled once at the finest grid (cfg.grid) and coarsened by
    subsampling, so every level sees the same path.  Returns (dt, sup-norm
    difference to the next finer level) per level, coarsest first; the
    differences should decrease under refinement.
    """
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    n_fine = cfg.grid.steps
    factor = 2 ** (levels - 1)
    if n_fine % factor != 0:
        raise ValueError(
            f"finest grid steps ({n_fine}) must be divisible by 2^(levels-1) = {factor}"
        )
    d = cfg.initial.size
    fine = wood_chan_sample(cfg.grid, FbmConfig(cfg.hurst, d, seed), RandomSource(seed))
    solutions = []
    step_counts = [n_fine // 2**e for e in reversed(range(levels))]
    for steps in step_counts:
        stride = n_fine // steps
        grid = TimeGrid(cfg.grid.horizon, steps)
        driver = SamplePath(grid, fine.values[::stride])
        level_cfg = SolveConfig(cfg.initial, cfg.hurst, grid)
        solutions.append(euler_solve(coeffs, xi, driver, level_cfg))
    results = []
    for coarse, fine_sol in zip(solutions, solutions[1:]):
        stride = fine_sol.grid.steps // coarse.grid.steps
        diff = np.max(np.abs(coarse.values - fine_sol.values[::stride]))
        results.append((coarse.grid.dt, float(diff)))
    return results
