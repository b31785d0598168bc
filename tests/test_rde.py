import math

import numpy as np
import pytest

from fracvol import (
    FbmConfig,
    ModelCoefficients,
    Polyhedron,
    TimeGrid,
    convergence_probe,
    path_viability_margin,
    sample_paths,
    shifted_polyhedron,
)
from fracvol.coefficients import eval_mu
from fracvol.pricing import _constraint_data, xi_draws
from fracvol.rde import check_finite, euler_paths, euler_stepper
from fracvol.scenario import section4_scenario
from fracvol.viability import face_terms, project_into
from test_viability import _parent_project_into


def zero_coefficients(d=2):
    z = np.zeros((d, d))
    return ModelCoefficients(
        drift_matrix=z,
        xi_drift=np.zeros(d),
        drift_const=np.zeros(d),
        weights=z,
        xi_weights=np.zeros(d),
        offsets=np.zeros(d),
        directions=np.eye(d),
    )


def linear_drift_coefficients(d=2):
    cfg = zero_coefficients(d)
    return ModelCoefficients(
        drift_matrix=np.eye(d),
        xi_drift=cfg.xi_drift,
        drift_const=cfg.drift_const,
        weights=cfg.weights,
        xi_weights=cfg.xi_weights,
        offsets=cfg.offsets,
        directions=cfg.directions,
    )


def constant_diffusion_coefficients(matrix):
    # column j of the diffusion equals matrix[:, j] regardless of the state
    d = matrix.shape[0]
    z = np.zeros((d, d))
    return ModelCoefficients(
        drift_matrix=z,
        xi_drift=np.zeros(d),
        drift_const=np.zeros(d),
        weights=z,
        xi_weights=np.zeros(d),
        offsets=np.ones(d),
        directions=matrix.T.copy(),
    )


def zero_increments(grid, d=2):
    return np.zeros((1, grid.steps, d))


def driver_increments(grid, seed, d=2):
    """Increments (1, steps, d) of one H = 0.7 Wood–Chan path."""
    return np.diff(sample_paths(grid, FbmConfig(0.7, d, seed), 1), axis=1)


def overflowing_coefficients():
    return ModelCoefficients(
        drift_matrix=1e160 * np.eye(1),
        xi_drift=np.zeros(1),
        drift_const=np.zeros(1),
        weights=np.zeros((1, 1)),
        xi_weights=np.zeros(1),
        offsets=np.zeros(1),
        directions=np.eye(1),
    )


def reference_step(coeffs, xi, x, db, dt, project_onto):
    """One Euler step of the affine family written plainly, operation for operation."""
    shift = np.multiply.outer(np.asarray(xi, dtype=float), coeffs.xi_weights)
    factors = x @ coeffs.weights.T + shift + coeffs.offsets
    x = x + eval_mu(coeffs, xi, x) * dt + (factors * db) @ coeffs.directions
    return x if project_onto is None else project_into(x, *project_onto)


class TestEulerSolve:
    """`euler_paths` on a batch of one path."""

    def test_exponential_oracle_first_order(self):
        coeffs = linear_drift_coefficients()
        errors = []
        for steps in (64, 128, 256):
            grid = TimeGrid(1.0, steps)
            out = euler_paths(coeffs, 0.5, zero_increments(grid), [1.0, 0.0], grid.dt)
            errors.append(abs(out[0, -1, 0] - math.e))
        assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.3)
        assert errors[1] / errors[2] == pytest.approx(2.0, abs=0.3)

    def test_zero_fields_keep_initial_state(self):
        grid = TimeGrid(1.0, 32)
        db = driver_increments(grid, 3)
        out = euler_paths(zero_coefficients(), 0.3, db, [1.5, -2.0], grid.dt)
        assert np.array_equal(out[0], np.tile([1.5, -2.0], (33, 1)))

    def test_constant_diffusion_telescopes(self):
        sigma0 = np.array([[0.5, -0.25], [0.1, 0.4]])
        coeffs = constant_diffusion_coefficients(sigma0)
        grid = TimeGrid(1.0, 64)
        initial = np.array([1.0, 2.0])
        driver = sample_paths(grid, FbmConfig(0.7, 2, 5), 1)
        out = euler_paths(coeffs, 0.9, np.diff(driver, axis=1), initial, grid.dt)
        expected = initial + driver[0] @ sigma0.T
        assert np.max(np.abs(out[0] - expected)) <= 1e-12

    def test_rough_regime_rejected(self):
        # the probe draws its own fBm driver, so it checks the Young regime
        with pytest.raises(ValueError, match="rough regime unsupported"):
            convergence_probe(zero_coefficients(1), 0.0, [1.0], 0.5, TimeGrid(1.0, 4), 0)

    def test_overflow_names_step(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(FloatingPointError, match="step 2"):
            euler_paths(overflowing_coefficients(), 0.0, zero_increments(grid, 1), [1.0], grid.dt)

    def test_overflow_outside_two_faces_names_step(self):
        # the overflowing state lies outside both faces of x >= -1e200; the
        # projection leaves it to the solver's finiteness check
        grid = TimeGrid(1.0, 8)
        faces = Polyhedron([[-1.0], [-2.0]], [[-1e200], [-1e200]])
        with pytest.raises(FloatingPointError, match="step 2"):
            euler_paths(
                overflowing_coefficients(), 0.0, zero_increments(grid, 1), [-1.0], grid.dt,
                project_onto=(faces.normals, faces.offsets),
            )

    def test_dimension_mismatch_rejected(self):
        # one initial entry is not broadcast over two driver components
        grid = TimeGrid(1.0, 8)
        with pytest.raises(ValueError, match="2 components"):
            euler_paths(zero_coefficients(), 0.1, zero_increments(grid), np.array([1.0]), grid.dt)

    def test_driver_continuity_probe(self):
        # a uniform driver perturbation moves the solution by at most C * delta
        sc = section4_scenario(steps=256)
        grid = sc.grid
        db = driver_increments(grid, 8)
        base = euler_paths(sc.coefficients, 0.8, db, sc.initial_state, grid.dt)
        delta = 1e-4
        bumped_db = db.copy()
        bumped_db[:, 0] += delta  # the driver's values after t_0 all move by delta
        bumped = euler_paths(sc.coefficients, 0.8, bumped_db, sc.initial_state, grid.dt)
        response = np.max(np.abs(bumped - base))
        assert response <= 50 * delta

    def test_projection_keeps_feasibility(self):
        sc = section4_scenario(steps=256)
        xi = float(xi_draws(sc.xi, sc.seed, 0, 1)[0])
        poly = shifted_polyhedron(sc.market.projections, sc.market.anchor_indices, xi)
        grid = sc.grid
        db = driver_increments(grid, 2)
        out = euler_paths(
            sc.coefficients, xi, db, sc.initial_state, grid.dt, (poly.normals, poly.offsets)
        )
        assert path_viability_margin(out[0], poly) >= -1e-9

    def test_batched_matches_single(self):
        sc = section4_scenario(steps=32)
        grid = sc.grid
        db = driver_increments(grid, 4)
        single = euler_paths(sc.coefficients, 0.6, db, sc.initial_state, grid.dt)
        batch = euler_paths(
            sc.coefficients,
            np.array([0.6, 0.6]),
            np.concatenate([db] * 2),
            sc.initial_state,
            grid.dt,
        )
        assert np.array_equal(batch[0], single[0])
        assert np.array_equal(batch[1], single[0])


class TestCheckFinite:
    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_step_and_first_bad_path(self, bad, column):
        x = np.ones((6, 2))
        check_finite(x, 7)
        x[4, 1 - column] = np.nan
        x[2, column] = bad
        with pytest.raises(FloatingPointError, match=r"at step 7 \(path 2 of the batch\)"):
            check_finite(x, 7)


class TestEulerStepper:
    """The per-batch step equals the plain formula bit for bit and aliases nothing."""

    @staticmethod
    def _batch(paths=64, steps=32):
        sc = section4_scenario(steps=steps)
        xi = xi_draws(sc.xi, sc.seed, 0, paths)
        rng = np.random.default_rng(11)
        # large increments push many paths out of K(xi), some past two faces
        db = rng.normal(scale=0.5, size=(paths, steps, sc.dims))
        return sc, xi, db

    @pytest.mark.parametrize("project", [False, True])
    def test_step_leaves_arguments_unchanged(self, project):
        sc, xi, db = self._batch()
        constraint = _constraint_data(sc, xi) if project else None
        x = np.random.default_rng(12).normal(size=(xi.size, sc.dims))
        args = [x, db[:, 0], xi] + (list(constraint) if project else [])
        before = [a.copy() for a in args]
        step = euler_stepper(sc.coefficients, xi, sc.grid.dt, constraint)
        y = step(x, db[:, 0])
        for a, b in zip(args, before):
            assert np.array_equal(a, b)
        assert not any(np.shares_memory(y, a) for a in args)
        want = reference_step(sc.coefficients, xi, x, db[:, 0], sc.grid.dt, constraint)
        assert y.tobytes() == want.tobytes()
        assert step(x, db[:, 0]).tobytes() == want.tobytes()  # a second call sees the same x

    @pytest.mark.parametrize("project", [False, True])
    def test_paths_equal_plain_recursion(self, project):
        sc, xi, db = self._batch()
        constraint = _constraint_data(sc, xi) if project else None
        out = euler_paths(sc.coefficients, xi, db, sc.initial_state, sc.grid.dt, constraint)
        x = np.tile(sc.initial_state, (xi.size, 1))
        states = [x]
        for i in range(db.shape[1]):
            x = reference_step(sc.coefficients, xi, x, db[:, i], sc.grid.dt, constraint)
            states.append(x)
        assert out.tobytes() == np.stack(states, axis=1).tobytes()
        # the rows hold different states, so no step wrote into an earlier one
        assert not np.array_equal(out[:, 1], out[:, 2])
        # the same increments take unprojected paths out of K(xi); projected
        # ones stay inside up to the rounding excess of a projection
        normals, offsets = _constraint_data(sc, xi)
        excess = np.max(out @ normals.T - offsets[:, None])
        assert excess <= 1e-12 if project else excess > 0.1


def _parent_euler_stepper(coeffs: ModelCoefficients, xi, dt: float, project_onto=None):
    """`rde.euler_stepper` as it was before it copied the drift constant and
    the diffusion offsets to every path, verbatim, projecting with the
    parent's `project_into`."""
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
    return lambda x, db: _parent_project_into(advance(x, db), normals, offsets, faces)


def random_coefficients(d, rng):
    """An affine family of d dimensions with every term nonzero."""
    return ModelCoefficients(
        drift_matrix=rng.normal(scale=0.5, size=(d, d)),
        xi_drift=rng.normal(size=d),
        drift_const=rng.normal(size=d),
        weights=rng.normal(scale=0.5, size=(d, d)),
        xi_weights=rng.normal(size=d),
        offsets=rng.normal(size=d),
        directions=rng.normal(size=(d, d)),
    )


class TestStepperEqualsParent:
    """`euler_stepper` equals the parent's stepper byte for byte, projected or
    not, with one xi per path and with the scalar xi of `convergence_probe`."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("scalar_xi", [False, True])
    def test_steps_equal_parent(self, d, project, scalar_xi):
        rng = np.random.default_rng(60 + d)
        coeffs, dt, paths = random_coefficients(d, rng), 1 / 16, 50
        xi = 0.7 if scalar_xi else rng.uniform(0.2, 1.0, paths)
        constraint = None
        if project:
            # faces <h_k, x> >= xi for d + 1 random projections h_k, the
            # first d anchored on their own coordinate
            h = np.vstack([np.eye(d) + rng.uniform(0, 0.5, (d, d)), rng.uniform(0.5, 1, d)])
            base = shifted_polyhedron(h, [*range(d), 0], 1.0)
            constraint = base.normals, np.multiply.outer(xi, base.offsets)
        x = rng.uniform(0.5, 2.0, (paths, d))
        step = euler_stepper(coeffs, xi, dt, constraint)
        parent = _parent_euler_stepper(coeffs, xi, dt, constraint)
        for _ in range(12):
            db = rng.normal(scale=0.6, size=(paths, d))
            want = parent(x, db)
            got = step(x, db)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            x = want

    def test_non_finite_state_names_its_step_and_path(self):
        # from U0 = 1e308 the drift U0 + xi * c overflows at the first step
        # exactly on the path of the largest xi, which is not the first path
        d, paths = 3, 40
        xi = np.random.default_rng(7).uniform(0.2, 1.0, paths)
        top, second = np.sort(xi)[-2:][::-1]
        bad = int(np.argmax(xi))
        assert bad > 0
        c = (np.finfo(float).max - 1e308) / (0.5 * (top + second))
        coeffs = ModelCoefficients(
            drift_matrix=np.diag([1.0, 0.0, 0.0]),
            xi_drift=np.array([c, 0.0, 0.0]),
            drift_const=np.array([0.0, 0.5, -0.5]),
            weights=np.zeros((d, d)),
            xi_weights=np.zeros(d),
            offsets=np.array([0.1, 0.2, 0.3]),
            directions=np.eye(d),
        )
        initial, db = np.array([1e308, 0.0, 0.0]), np.zeros((paths, 4, d))
        message = rf"state became non-finite at step 1 \(path {bad} of the batch\)"
        with pytest.raises(FloatingPointError, match=message):
            euler_paths(coeffs, xi, db, initial, 0.125)
        parent = _parent_euler_stepper(coeffs, xi, 0.125)
        x = np.tile(initial, (paths, 1))
        with pytest.raises(FloatingPointError, match=message):
            with np.errstate(over="ignore", invalid="ignore"):
                check_finite(parent(x, db[:, 0]), 1)


class TestProjectPolyhedron:
    def test_round_trip(self):
        poly = shifted_polyhedron([[1.0, 1.0], [1.0, 0.0]], (0, 0), 0.5)
        pts = np.array([[2.0, 1.0], [-1.0, -2.0]])
        proj = project_into(pts, poly.normals, poly.offsets)
        assert np.array_equal(proj[0], pts[0])
        assert path_viability_margin(proj[1][None, :], poly) >= -1e-10


class TestConvergenceProbe:
    def test_linear_problem_halves(self):
        coeffs = linear_drift_coefficients()
        grid = TimeGrid(1.0, 256)
        results = convergence_probe(coeffs, 0.0, [1.0, 0.0], 0.7, grid, seed=1, levels=4)
        diffs = [d for _, d in results]
        assert diffs[0] / diffs[1] == pytest.approx(2.0, abs=0.4)
        assert diffs[1] / diffs[2] == pytest.approx(2.0, abs=0.4)

    def test_constant_diffusion_exact(self):
        # telescopes exactly; only float reassociation across levels remains
        coeffs = constant_diffusion_coefficients(np.array([[0.3, 0.0], [0.0, 0.2]]))
        grid = TimeGrid(1.0, 128)
        results = convergence_probe(coeffs, 0.0, [1.0, 1.0], 0.7, grid, seed=2, levels=3)
        assert all(d <= 1e-13 for _, d in results)

    def test_reference_preset_decreasing(self):
        sc = section4_scenario(steps=512)
        results = convergence_probe(
            sc.coefficients, 0.8, sc.initial_state, 0.7, sc.grid, seed=3, levels=4
        )
        diffs = [d for _, d in results]
        assert all(a > b for a, b in zip(diffs, diffs[1:]))

    def test_divisibility_required(self):
        with pytest.raises(ValueError, match="divisible"):
            convergence_probe(zero_coefficients(1), 0.0, [1.0], 0.7, TimeGrid(1.0, 12), 0)

    def test_nonfinite_initial_rejected(self):
        with pytest.raises(ValueError, match="initial state must be finite"):
            convergence_probe(zero_coefficients(), 0.0, [1.0, np.nan], 0.7, TimeGrid(1.0, 8), 0)
