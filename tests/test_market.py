import dataclasses
import math

import numpy as np
import pytest

from fracvol import MarketParams, TimeGrid
from fracvol.market import (
    discount_factor,
    floor_breach,
    log_price_increments,
    log_weight,
    price_paths,
    theta,
    vol_floor,
    volatility,
)


def two_asset_params(rate=0.05, drifts=(0.1, 0.02)):
    return MarketParams(
        rate=rate,
        drifts=np.asarray(drifts, dtype=float),
        initial_prices=np.array([1.0, 1.0]),
        projections=np.array([[1.0, 1.0], [1.0, 0.0]]),
        anchor_indices=(0, 0),
    )


def brownian_increments(grid, d, seed, paths=()):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=math.sqrt(grid.dt), size=paths + (grid.steps, d))


def simulated_prices(vol, dw, params, dt):
    """Price paths from a volatility path on the grid and Brownian increments."""
    return price_paths(log_price_increments(vol[..., :-1, :], dw, params.drifts, dt), params)


class TestVolProjection:
    def test_reference_projection(self):
        u = np.array([[1.0, 0.0], [2.0, -0.5], [0.3, 0.1]])
        v = volatility(u, two_asset_params())
        assert np.allclose(v, [[1.0, 1.0], [1.5, 2.0], [0.4, 0.3]])

    def test_identity_projection(self):
        params = MarketParams(
            rate=0.05,
            drifts=np.zeros(2),
            initial_prices=np.ones(2),
            projections=np.eye(2),
            anchor_indices=(0, 1),
        )
        u = np.cumsum(brownian_increments(TimeGrid(1.0, 3), 2, 1), axis=0)
        assert np.array_equal(volatility(u, params), u)

    def test_constant_state_constant_vol(self):
        u = np.tile([0.2, 0.3], (5, 1))
        v = volatility(u, two_asset_params())
        assert np.allclose(v, np.tile([0.5, 0.2], (5, 1)))

    def test_leading_path_axes(self):
        u = np.random.default_rng(2).normal(size=(4, 3, 2))
        v = volatility(u, two_asset_params())
        for p in range(4):
            assert np.array_equal(v[p], volatility(u[p], two_asset_params()))

    def test_out_argument(self):
        # written into a row of a larger buffer, with the bits of a fresh result
        u = np.random.default_rng(3).normal(size=(5, 2))
        history = np.zeros((3, 5, 2))
        v = volatility(u, two_asset_params(), out=history[1])
        assert np.shares_memory(v, history[1])
        assert history[1].tobytes() == volatility(u, two_asset_params()).tobytes()
        assert not history[[0, 2]].any()


class TestRiskfree:
    """The risk-free account exp(rate * t) enters only through its exact inverse."""

    def test_initial_value(self):
        assert discount_factor(0.0, two_asset_params()) == 1.0

    def test_exponential_value(self):
        assert discount_factor(1.0, two_asset_params()) == pytest.approx(
            math.exp(-0.05), rel=1e-14
        )

    def test_discount_is_exact_inverse(self):
        params = two_asset_params()
        t = 0.73
        account = params.initial_riskfree * math.exp(params.rate * t)
        assert discount_factor(t, params) * account == pytest.approx(1.0, rel=1e-14)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate"):
            two_asset_params(rate=0.0)


class TestSimulatePrices:
    def test_zero_vol_deterministic_growth(self):
        grid = TimeGrid(1.0, 16)
        params = two_asset_params(drifts=(0.1, -0.05))
        vol = np.zeros((17, 2))
        dw = brownian_increments(grid, 2, 2)
        prices = simulated_prices(vol, dw, params, grid.dt)
        expected = np.exp(np.outer(grid.times, params.drifts))
        assert np.allclose(prices, expected, rtol=1e-12)

    def test_zero_driver_constant_vol(self):
        grid = TimeGrid(1.0, 8)
        params = two_asset_params(drifts=(0.1, 0.02))
        v = np.array([0.5, 0.2])
        vol = np.tile(v, (9, 1))
        prices = simulated_prices(vol, np.zeros((8, 2)), params, grid.dt)
        expected = np.exp(np.outer(grid.times, params.drifts - 0.5 * v**2))
        assert np.allclose(prices, expected, rtol=1e-12)

    def test_lognormal_moments(self):
        grid = TimeGrid(1.0, 16)
        params = two_asset_params(drifts=(0.1, 0.02))
        v = np.array([0.5, 0.2])
        vol = np.tile(v, (17, 1))
        n_paths = 20_000
        dw = brownian_increments(grid, 2, 7, paths=(n_paths,))
        logs = np.log(simulated_prices(vol, dw, params, grid.dt)[:, -1])
        for k in range(2):
            mean_target = params.drifts[k] - 0.5 * v[k] ** 2
            se_mean = logs[:, k].std(ddof=1) / math.sqrt(n_paths)
            assert abs(logs[:, k].mean() - mean_target) <= 3 * se_mean
            sq = (logs[:, k] - logs[:, k].mean()) ** 2
            se_var = sq.std(ddof=1) / math.sqrt(n_paths)
            assert abs(logs[:, k].var(ddof=1) - v[k] ** 2) <= 3 * se_var

    def test_strict_positivity(self):
        grid = TimeGrid(1.0, 64)
        params = two_asset_params()
        w = np.vstack([np.zeros(2), np.cumsum(brownian_increments(grid, 2, 3), axis=0)])
        vol = np.abs(w) + 0.1
        dw = brownian_increments(grid, 2, 4)
        assert np.all(simulated_prices(vol, dw, params, grid.dt) > 0)

    def test_risk_neutral_drift_is_the_rate(self):
        v = np.array([0.5, 0.2])
        incr = log_price_increments(v, np.zeros(2), 0.05, 0.25)
        assert np.allclose(incr, (0.05 - 0.5 * v**2) * 0.25)

    def test_copied_drift_gives_the_same_bits(self):
        rng = np.random.default_rng(8)
        v, dw = rng.uniform(0.2, 1.0, (3, 5, 2)), rng.normal(0.0, 0.1, (3, 5, 2))
        drifts = np.array([0.1, 0.02])
        want = log_price_increments(v, dw, drifts, 0.25)
        for shape in ((5, 2), v.shape):  # one path's steps, or every path's
            got = log_price_increments(v, dw, np.broadcast_to(drifts, shape).copy(), 0.25)
            assert got.tobytes() == want.tobytes()


class TestTheta:
    def test_reference_arithmetic(self):
        params = two_asset_params(rate=0.05, drifts=(0.1, 0.02))
        assert np.allclose(theta(np.array([0.5, 0.2]), params.premium), [-0.1, 0.15])

    def test_zero_when_drifts_equal_rate(self):
        params = two_asset_params(rate=0.05, drifts=(0.05, 0.05))
        assert np.allclose(theta(np.array([0.4, 0.9]), params.premium), 0.0)

    def test_scaling_halves(self):
        params = two_asset_params()
        v = np.array([0.5, 0.2])
        assert np.allclose(theta(2 * v, params.premium), 0.5 * theta(v, params.premium))

    def test_premium_is_read_only_rate_minus_drifts(self):
        params = two_asset_params(rate=0.05, drifts=(0.1, 0.02))
        assert params.premium.tobytes() == (0.05 - np.array([0.1, 0.02])).tobytes()
        assert not params.premium.flags.writeable
        assert "premium" not in repr(params)
        # a changed drift gives a new premium
        again = dataclasses.replace(params, drifts=np.array([0.05, 0.05]))
        assert np.array_equal(again.premium, [0.0, 0.0])

    def test_out_argument(self):
        v = np.random.default_rng(4).uniform(0.3, 1.0, size=(6, 2))
        params = two_asset_params()
        buffer = np.empty((4, 12))
        th = theta(v, params.premium, out=buffer[2].reshape(6, 2))
        assert np.shares_memory(th, buffer[2])
        want = (params.rate - params.drifts) / v
        assert buffer[2].tobytes() == want.tobytes() == theta(v, params.premium).tobytes()
        # a premium copied to the shape of v gives the same bits
        copied = np.broadcast_to(params.premium, v.shape).copy()
        assert theta(v, copied).tobytes() == want.tobytes()

    # floor_breach is the guard that keeps theta's reciprocal of V finite
    def test_floor_guard(self):
        breached, _ = floor_breach(np.array([0.3, 0.2]), 0.5)
        assert breached
        # above the floor the same state is fine
        breached, v_safe = floor_breach(np.array([0.3, 0.26]), 0.5)
        assert not breached
        assert np.array_equal(v_safe, [0.3, 0.26])
        assert np.all(np.isfinite(theta(v_safe, two_asset_params().premium)))

    def test_nonpositive_vol_rejected(self):
        breached, v_safe = floor_breach(np.array([0.5, 0.0]), 0.0)
        assert breached
        assert np.array_equal(v_safe, [0.5, 1.0])

    def test_per_path_floor(self):
        v = np.array([[[0.6, 0.4], [0.5, 0.3]], [[0.6, 0.4], [0.5, 0.3]]])
        breached, v_safe = floor_breach(v, np.array([0.5, 0.7]))
        assert breached.tolist() == [False, True]
        assert np.array_equal(v_safe[0], v[0])
        assert np.array_equal(v_safe[1], [[0.6, 0.4], [0.5, 1.0]])

    @pytest.mark.parametrize("xi", [0.5, np.array([0.5, 0.7])])
    def test_no_breach_matches_replacement(self, xi):
        # with nothing below the floor the mask is all False, with the shape a
        # breach would give it, and the values are those of v
        v = np.array([[[0.6, 0.4], [0.5, 0.36]], [[0.6, 0.4], [0.5, 0.36]]])
        breached, v_safe = floor_breach(v, xi)
        assert breached.shape == np.shape(xi) and breached.dtype == bool
        assert not breached.any()
        assert v_safe.tobytes() == v.tobytes()
        v[1, 1, 1] = 0.2  # one breach: the same mask shape, one flag set
        breached, _ = floor_breach(v, xi)
        assert breached.shape == np.shape(xi)
        assert breached.tolist() == (True if np.ndim(xi) == 0 else [False, True])

    @pytest.mark.parametrize("xi", [0.5, np.array([0.5, 0.7])])
    def test_precomputed_floor(self, xi):
        # the floor xi / 2 shaped against v, computed once, gives what
        # floor_breach computes from xi, with and without a breach
        for last in (0.36, 0.2):  # no breach, then one
            v = np.array([[[0.6, 0.4], [0.5, 0.36]], [[0.6, 0.4], [0.5, last]]])
            floor = vol_floor(xi, v.ndim)
            assert floor.shape == np.shape(xi) + (1,) * (v.ndim - np.ndim(xi))
            assert np.array_equal(floor, 0.5 * np.reshape(xi, floor.shape))
            full = np.broadcast_to(floor, v.shape).copy()  # as the feedback loop holds it
            for given in (floor, full):
                for a, b in zip(floor_breach(v, xi, given), floor_breach(v, xi)):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStochasticExponential:
    """The density exp(log_weight) of the risk-neutral measure on the grid."""

    def test_zero_integrand_is_one(self):
        dw = brownian_increments(TimeGrid(1.0, 8), 2, 5)
        assert np.exp(log_weight(np.zeros((8, 2)), dw, 1 / 8)) == 1.0

    def test_starts_at_one(self):
        # over no grid steps the weight is its start value
        assert np.exp(log_weight(np.ones((0, 2)), np.ones((0, 2)), 0.25)) == 1.0

    def test_constant_integrand_mean_one(self):
        grid = TimeGrid(1.0, 8)
        th = np.array([0.3, -0.4])
        n_paths = 10_000
        dw = brownian_increments(grid, 2, 6, paths=(n_paths,))
        terminal = np.exp(log_weight(np.broadcast_to(th, dw.shape), dw, grid.dt))
        se = terminal.std(ddof=1) / math.sqrt(n_paths)
        assert abs(terminal.mean() - 1.0) <= 3 * se

    def test_shape_validation(self):
        # one integrand value per grid step and component
        with pytest.raises(ValueError):
            log_weight(np.zeros((7, 2)), np.zeros((8, 2)), 1 / 8)


class TestMarketParamsValidation:
    @pytest.mark.parametrize("indices", [(0.5, 0), (True, 0)])
    def test_non_integer_anchor_index_rejected(self, indices):
        # 0.5 was truncated to 0 and True ran as 1
        with pytest.raises(ValueError, match="anchor_indices must be integers"):
            MarketParams(
                rate=0.05,
                drifts=np.zeros(2),
                initial_prices=np.ones(2),
                projections=np.array([[1.0, 1.0], [1.0, 0.0]]),
                anchor_indices=indices,
            )

    def test_zero_projection_rejected(self):
        with pytest.raises(ValueError):
            MarketParams(
                rate=0.05,
                drifts=np.zeros(2),
                initial_prices=np.ones(2),
                projections=np.array([[1.0, 1.0], [0.0, 0.0]]),
                anchor_indices=(0, 0),
            )

    def test_zero_pivot_rejected(self):
        with pytest.raises(ValueError, match="anchor index"):
            MarketParams(
                rate=0.05,
                drifts=np.zeros(2),
                initial_prices=np.ones(2),
                projections=np.array([[1.0, 1.0], [0.0, 1.0]]),
                anchor_indices=(0, 0),
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["drifts", "initial_prices", "projections"])
    def test_non_finite_array_entry_rejected(self, field, value):
        # they were kept: a NaN drift failed late as "log-weight became
        # non-finite", a NaN projection in linprog, and an infinite initial
        # price was priced as an infinite estimate with a NaN error bar
        fields = {
            "rate": 0.05,
            "drifts": np.zeros(2),
            "initial_prices": np.ones(2),
            "projections": np.array([[1.0, 1.0], [1.0, 0.0]]),
            "anchor_indices": (0, 0),
        }
        array = np.array(fields[field], dtype=float)
        array.flat[0] = value
        with pytest.raises(ValueError, match=f"{field} contains non-finite entries"):
            MarketParams(**{**fields, field: array})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["rate", "initial_riskfree"])
    def test_non_finite_scalar_rejected(self, field, value):
        # an infinite rate and a NaN or infinite risk-free price were kept
        fields = {
            "rate": 0.05,
            "drifts": np.zeros(2),
            "initial_prices": np.ones(2),
            "projections": np.eye(2),
            "anchor_indices": (0, 1),
        }
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            MarketParams(**{**fields, field: value})

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            MarketParams(
                rate=0.05,
                drifts=np.zeros(2),
                initial_prices=np.array([1.0, 0.0]),
                projections=np.eye(2),
                anchor_indices=(0, 1),
            )
