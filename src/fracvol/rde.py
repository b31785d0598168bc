"""Explicit Euler scheme for the state equation driven by a long-memory path.

The scheme is the plain first-order update
    U(t_{i+1}) = U(t_i) + mu(xi, U(t_i)) dt + sigma(xi, U(t_i)) (B(t_{i+1}) - B(t_i))
and is only meaningful in the Young regime hurst > 1/2, which `require_young`
enforces.  A path is an array: `euler_paths` runs the increments (paths, n, d)
of a batch of drivers at once, and a single path is a batch of one.  The
coefficients are the affine family of `coefficients`, so a step is a few
matrix products on the whole batch (`euler_stepper`).  No projection onto a
constraint set is applied by default; callers needing hard feasibility can
pass `project_onto`, which applies a Euclidean projection onto the polyhedron
after every step.
"""

from __future__ import annotations

import numpy as np

from .coefficients import ModelCoefficients
from .fbm import FbmConfig, sample_paths
from .grids import TimeGrid
from .viability import Polyhedron, face_terms, project_into


def require_young(hurst: float) -> None:
    """Reject a Hurst index outside the Young regime (1/2, 1) the scheme needs."""
    if not (0.5 < hurst < 1.0):
        raise ValueError(
            f"rough regime unsupported: hurst must lie in (1/2, 1), got {hurst}"
        )


def euler_stepper(coeffs: ModelCoefficients, xi, dt: float, project_onto=None):
    """The Euler update `step(x, db)` of states x (paths, d) by driver increments
    db (paths, d), then the projection onto `project_onto`, a (normals, offsets)
    pair, if given.  What does not change between steps is computed here, once
    per batch, the matrix products' right operands as contiguous copies (see
    `face_terms`); a step returns a fresh array and leaves its arguments
    unchanged."""
    drift_t = np.ascontiguousarray(coeffs.drift_matrix.T)
    weights_t = np.ascontiguousarray(coeffs.weights.T)
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
    faces = face_terms(normals)
    return lambda x, db: project_into(advance(x, db), normals, offsets, faces)


def check_finite(x: np.ndarray, step: int) -> None:
    """Raise FloatingPointError, naming the step and the first bad path, unless
    every state of the batch x (paths, d) is finite.  Both time-stepping loops
    run under np.errstate(over="ignore", invalid="ignore") and leave overflow
    to this check."""
    if np.count_nonzero(np.isfinite(x)) < x.size:
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

    Returns states of shape (paths, n + 1, d).  `initial` must have d entries.
    `project_onto` may be a polyhedron, or a (normals, offsets) pair whose
    offsets carry a leading paths axis so each path can have its own
    constraint levels.  Raises as soon as any state stops being finite, naming
    the offending step.
    """
    db = np.asarray(db, dtype=float)
    paths, n, d = db.shape
    initial = np.asarray(initial, dtype=float)
    if initial.shape[-1:] != (d,):
        raise ValueError(
            f"the increments have {d} components but the initial state has shape "
            f"{initial.shape}"
        )
    out = np.empty((paths, n + 1, d))
    x = np.broadcast_to(initial, (paths, d)).copy()
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


def convergence_probe(
    coeffs: ModelCoefficients,
    xi: float,
    initial: np.ndarray,
    hurst: float,
    grid: TimeGrid,
    seed: int,
    levels: int = 4,
) -> list[tuple[float, float]]:
    """Self-convergence of the scheme under dyadic refinement of a frozen driver.

    The driver, path 0 of `sample_paths` under FbmConfig(hurst, d, seed), is
    sampled once at the finest grid and coarsened by subsampling, so every
    level sees the same path.  Returns (dt, sup-norm difference to the next
    finer level) per level, coarsest first; the differences should decrease
    under refinement.
    """
    require_young(hurst)
    initial = np.atleast_1d(np.asarray(initial, dtype=float))
    if not np.all(np.isfinite(initial)):
        raise ValueError("initial state must be finite")
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    n_fine = grid.steps
    factor = 2 ** (levels - 1)
    if n_fine % factor != 0:
        raise ValueError(
            f"finest grid steps ({n_fine}) must be divisible by 2^(levels-1) = {factor}"
        )
    fine = sample_paths(grid, FbmConfig(hurst, initial.size, seed), 1)
    step_counts = [n_fine // 2**e for e in reversed(range(levels))]
    solutions = []
    for steps in step_counts:
        db = np.diff(fine[:, :: n_fine // steps], axis=1)
        solutions.append(euler_paths(coeffs, xi, db, initial, grid.horizon / steps)[0])
    return [
        (grid.horizon / steps, float(np.max(np.abs(coarse - finer[::2]))))
        for steps, coarse, finer in zip(step_counts, solutions, solutions[1:])
    ]
