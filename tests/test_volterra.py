import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from fracvol import (
    FbmConfig,
    RandomSource,
    SamplePath,
    TimeGrid,
    build_kernel_matrix,
    du_transform,
    fbm_cov,
    hyp2f1,
    kernel_K,
    wood_chan_sample,
)
from fracvol.pricing import w_increments
from fracvol.volterra import HypergeometricError, transform_increments

mp.mp.dps = 30


def mp_hyp2f1(a, b, c, z):
    return float(mp.hyp2f1(a, b, c, z))


class TestHyp2f1:
    def test_zero_argument(self):
        assert hyp2f1(0.3, -1.2, 0.9, 0.0) == 1.0

    def test_zero_first_parameter(self):
        assert hyp2f1(0.0, 2.5, 1.1, -42.0) == 1.0

    def test_log_identity(self):
        # 2F1(1, 1; 2; z) = -log(1 - z) / z
        assert hyp2f1(1.0, 1.0, 2.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-13)

    @pytest.mark.parametrize(
        "a,b,c,z",
        [
            (-0.2, 0.2, 1.2, -3.0),
            (-0.45, 0.45, 0.95, -700.0),
            (0.25, -0.25, 0.75, -0.4),
            (1.3, 0.7, 2.4, -12.0),
        ],
    )
    def test_against_high_precision(self, a, b, c, z):
        assert hyp2f1(a, b, c, z) == pytest.approx(mp_hyp2f1(a, b, c, z), rel=1e-10)

    def test_positive_argument_rejected(self):
        with pytest.raises(ValueError, match="z <= 0"):
            hyp2f1(0.5, 0.5, 1.5, 0.5)

    def test_nonpositive_integer_c_rejected(self):
        with pytest.raises(ValueError, match="non-positive integer"):
            hyp2f1(0.5, 0.5, -1.0, -1.0)

    def test_nonconvergence_reports_diagnostics(self):
        # inside the near-half band the deep-argument continuation is disabled,
        # so an extreme argument exhausts the term cap
        with pytest.raises(HypergeometricError, match="partial sum"):
            hyp2f1(0.01, -0.01, 0.51, -1e9)


class TestKernel:
    def test_zero_beyond_target(self):
        assert kernel_K(1.0, 1.0, 0.7) == 0.0
        assert kernel_K(1.0, 1.5, 0.7) == 0.0

    def test_brownian_case_is_one(self):
        assert kernel_K(1.0, 0.5, 0.5) == 1.0
        assert kernel_K(0.9, 0.1, 0.5) == 1.0

    def test_source_zero_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            kernel_K(1.0, 0.0, 0.7)

    def test_high_precision_value(self):
        # frozen from the 30-digit evaluation of the defining formula
        assert kernel_K(1.0, 0.5, 0.7) == pytest.approx(0.97473775260964768, abs=1e-8)

    def test_matches_high_precision_formula(self):
        for t, s, h in [(1.0, 0.25, 0.7), (0.8, 0.3, 0.3), (2.0, 1.9, 0.6)]:
            ref = (
                (t - s) ** (h - 0.5)
                / math.gamma(h + 0.5)
                * mp_hyp2f1(0.5 - h, h - 0.5, h + 0.5, 1 - t / s)
            )
            assert kernel_K(t, s, h) == pytest.approx(ref, rel=1e-10)


class TestKernelMatrix:
    def test_brownian_entries_are_one(self):
        km = build_kernel_matrix(TimeGrid(1.0, 8), 0.5)
        rows, cols = np.tril_indices(8)
        assert np.array_equal(km.entries[rows, cols], np.ones(rows.size))

    def test_strictly_lower_triangular_support(self):
        km = build_kernel_matrix(TimeGrid(1.0, 6), 0.7)
        assert np.array_equal(km.entries, np.tril(km.entries))
        assert np.all(np.diag(km.entries) > 0)

    def test_interior_entries_match_midpoint_kernel(self):
        grid = TimeGrid(1.0, 6)
        km = build_kernel_matrix(grid, 0.7)
        dt = grid.dt
        for i in range(6):
            for j in range(1, i):
                mid = (j + 0.5) * dt
                assert km.entries[i, j] == pytest.approx(
                    kernel_K(grid.times[i + 1], mid, 0.7), rel=1e-12
                )

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_edge_entries_match_quadrature_oracle(self, h):
        # singular cells carry the cell root mean square of the kernel
        grid = TimeGrid(1.0, 6)
        km = build_kernel_matrix(grid, h)
        dt = grid.dt
        for i in [1, 3, 5]:
            t = grid.times[i + 1]
            first, _ = quad(lambda s: kernel_K(t, s, h) ** 2, 0.0, dt, limit=200)
            assert km.entries[i, 0] == pytest.approx(math.sqrt(first / dt), rel=2e-6)
            diag, _ = quad(lambda s: kernel_K(t, s, h) ** 2, t - dt, t, limit=200)
            assert km.entries[i, i] == pytest.approx(math.sqrt(diag / dt), rel=2e-6)

    def test_cache_returns_same_object(self):
        a = build_kernel_matrix(TimeGrid(1.0, 16), 0.7)
        b = build_kernel_matrix(TimeGrid(1.0, 16), 0.7)
        assert a is b

    def test_oversized_grid_rejected_before_allocation(self):
        # 2^20 steps need 8 TiB for the matrix alone
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="physical memory"):
                build_kernel_matrix(TimeGrid(1.0, 2**20), 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestDuTransform:
    def test_identity_at_half(self):
        grid = TimeGrid(1.0, 64)
        w = cholesky_like_brownian(grid, seed=4)
        km = build_kernel_matrix(grid, 0.5)
        b = du_transform(w, km)
        assert np.max(np.abs(b.values - w.values)) <= 1e-12

    def test_zero_in_zero_out(self):
        grid = TimeGrid(1.0, 16)
        km = build_kernel_matrix(grid, 0.7)
        w = SamplePath(grid, np.zeros((17, 2)))
        assert np.array_equal(du_transform(w, km).values, np.zeros((17, 2)))

    def test_linearity(self):
        grid = TimeGrid(1.0, 32)
        km = build_kernel_matrix(grid, 0.7)
        w1 = cholesky_like_brownian(grid, seed=41)
        w2 = cholesky_like_brownian(grid, seed=42)
        combo = SamplePath(grid, 2.5 * w1.values + w2.values)
        lhs = du_transform(combo, km).values
        rhs = 2.5 * du_transform(w1, km).values + du_transform(w2, km).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_causality(self):
        grid = TimeGrid(1.0, 16)
        km = build_kernel_matrix(grid, 0.7)
        w = cholesky_like_brownian(grid, seed=43)
        cut = 9
        bumped = w.values.copy()
        bumped[cut + 1 :] += 3.0
        b0 = du_transform(w, km).values
        b1 = du_transform(SamplePath(grid, bumped), km).values
        assert np.array_equal(b0[: cut + 1], b1[: cut + 1])
        assert not np.array_equal(b0[cut + 1 :], b1[cut + 1 :])

    def test_grid_mismatch_rejected(self):
        km = build_kernel_matrix(TimeGrid(1.0, 8), 0.7)
        w = cholesky_like_brownian(TimeGrid(1.0, 16), seed=1)
        with pytest.raises(ValueError, match="grid mismatch"):
            du_transform(w, km)

    def test_nonzero_start_rejected(self):
        grid = TimeGrid(1.0, 8)
        km = build_kernel_matrix(grid, 0.7)
        values = np.ones((9, 1))
        with pytest.raises(ValueError, match="start at 0"):
            du_transform(SamplePath(grid, values), km)

    def test_covariance_fidelity(self):
        h, steps, n_paths = 0.7, 16, 20_000
        grid = TimeGrid(1.0, steps)
        scenario_like = _FakeScenario(grid, dims=1)
        dw = w_increments(scenario_like, seed=123, start=0, count=n_paths)
        km = build_kernel_matrix(grid, h)
        b = transform_increments(dw, km)[:, 1:, 0]
        _assert_covariance_close(b, grid, h)

    @pytest.mark.xfail(
        strict=True,
        reason="the kernel's low-roughness normalization constant (~1.38 at "
        "hurst 0.3) shifts the whole covariance; see the decisions ledger in CHANGES.md",
    )
    def test_covariance_fidelity_low_hurst(self):
        h, steps, n_paths = 0.3, 16, 20_000
        grid = TimeGrid(1.0, steps)
        scenario_like = _FakeScenario(grid, dims=1)
        dw = w_increments(scenario_like, seed=321, start=0, count=n_paths)
        km = build_kernel_matrix(grid, h)
        b = transform_increments(dw, km)[:, 1:, 0]
        _assert_covariance_close(b, grid, h)


class _FakeScenario:
    def __init__(self, grid, dims):
        self.grid = grid
        self.dims = dims


def cholesky_like_brownian(grid: TimeGrid, seed: int) -> SamplePath:
    return wood_chan_sample(grid, FbmConfig(0.5, 1, seed), RandomSource(seed))


def _assert_covariance_close(b, grid, h):
    times = grid.times[1:]
    n = times.size
    for i in range(n):
        for j in range(i, n):
            prod = b[:, i] * b[:, j]
            emp = prod.mean()
            se = prod.std(ddof=1) / np.sqrt(prod.shape[0])
            target = fbm_cov(times[i], times[j], h)
            if i < 2 or j < 2:
                assert abs(emp - target) <= max(3.5 * se, 0.05 * abs(target))
            else:
                assert abs(emp - target) <= 3.5 * se
